// Corpus-driven engine/oracle differentials live in the external test
// package: the corpus generator imports sanitize, so seeding from it
// inside package sanitize would be an import cycle.
package sanitize_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/corpus"
	"repro/internal/mailmsg"
	"repro/internal/sanitize"
)

// chaosMessage is a copy of the i-th message the root package's chaos
// soak (chaos_test.go) sends; that soak checks every delivery is
// byte-identical to it, so a differential over these messages covers
// every text the soak's collector redacts.
func chaosMessage(i int) *mailmsg.Message {
	return mailmsg.NewBuilder("alice@gmail.com", fmt.Sprintf("u%d@gmial.com", i), fmt.Sprintf("chaos-%d", i)).
		Body("card 4111 1111 1111 1111 and ssn 078-05-1120\n").Build()
}

// chaosSHA256 is the SHA-256 of the soak's 12 messages' bytes in send
// order. chaos_test.go pins the same digest, so the copy cannot drift.
const chaosSHA256 = "728d4dde32bb3488f87c5fbe570318c5424a16a3717e1c0b703606cfeadcff95"

// chaosTexts returns the soak's 12 messages' full bytes as texts.
func chaosTexts(t *testing.T) []string {
	h := sha256.New()
	var texts []string
	for i := 0; i < 12; i++ {
		data := chaosMessage(i).Bytes()
		h.Write(data)
		texts = append(texts, string(data))
	}
	if sum := hex.EncodeToString(h.Sum(nil)); sum != chaosSHA256 {
		t.Fatalf("chaos soak messages drifted from chaos_test.go: SHA-256 %s, want %s", sum, chaosSHA256)
	}
	return texts
}

// TestEngineOracleCorpus replays the engine/oracle differential over
// realistic text: Table 2 Enron-style documents (every planted kind),
// messages from every Table 3 spam dataset and the chaos soak's
// messages. Scan findings, Redact output and Redact findings must be
// identical on both paths.
func TestEngineOracleCorpus(t *testing.T) {
	var texts []string
	opts := corpus.DefaultEnronOptions()
	opts.Plain, opts.PerKind = 80, 8
	for _, d := range corpus.GenerateEnron(opts) {
		texts = append(texts, d.Text, d.Subject)
	}
	for _, ds := range corpus.AllDatasets() {
		msgs := corpus.Generate(ds)
		for i := 0; i < len(msgs) && i < 60; i++ {
			texts = append(texts, msgs[i].Msg.Text(), msgs[i].Msg.Subject())
		}
	}
	texts = append(texts, chaosTexts(t)...)
	same := func(a, b []sanitize.Finding) bool { return len(a) == 0 && len(b) == 0 || reflect.DeepEqual(a, b) }
	s := sanitize.New("corpus-differential-salt")
	for _, text := range texts {
		eng := sanitize.Scan(text)
		ora := sanitize.ScanOracle(text)
		if !same(eng, ora) {
			t.Fatalf("engine/oracle findings differ on %q:\n engine: %v\n oracle: %v", text, eng, ora)
		}
		cleanEng, fEng := s.Redact(text)
		cleanOra, fOra := s.RedactOracle(text)
		if cleanEng != cleanOra {
			t.Fatalf("redaction differs on %q:\n engine: %q\n oracle: %q", text, cleanEng, cleanOra)
		}
		if !same(fEng, fOra) {
			t.Fatalf("redact findings differ on %q:\n engine: %v\n oracle: %v", text, fEng, fOra)
		}
	}
}
