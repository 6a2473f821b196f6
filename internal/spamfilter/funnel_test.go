package spamfilter

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/mailmsg"
)

// hamN builds the i-th distinct innocuous message: unique sender, body
// and subject so no frequency bucket aggregates across them.
func hamN(i int) *mailmsg.Message {
	return mailmsg.NewBuilder(fmt.Sprintf("alice%d@gmail.com", i), "bob@gmial.com", "hi").
		MessageID(fmt.Sprintf("m%d@gmail.com", i)).
		Body(fmt.Sprintf("see you at meeting %d tomorrow ok", i)).Build()
}

// funnelFixture is a deterministic corpus with at least one email per
// funnel outcome, in arrival order.
func funnelFixture() []*Email {
	at := func(i int) time.Time { return t0.Add(time.Duration(i) * time.Minute) }
	spam := mailmsg.NewBuilder("w@offers-zone.ru", "x@gmial.com", "WINNER!!! claim your prize").
		MessageID("s1@offers-zone.ru").
		Body("dear friend click here act now 100% free viagra order now, only $9.99 at http://win.biz/now http://win.biz/again").
		Build()
	archive := mailmsg.NewBuilder("a@ok.com", "b@gmial.com", "docs").
		MessageID("a1@ok.com").Body("see attached").
		Attach("x.zip", "application/zip", []byte{1}).Build()
	reflection := mailmsg.NewBuilder("news@list.example.com", "typoed@gmial.com", "your weekly digest").
		MessageID("r1@list.example.com").
		Body("you are receiving this because you subscribed; unsubscribe anytime").Build()
	collab := mailmsg.NewBuilder("w@offers-zone.ru", "y@outlo0k.com", "hello").
		MessageID("c1@offers-zone.ru").Body("just a short note").Build()
	smtp := mailmsg.NewBuilder("carol@gmail.com", "dave@verizon.net", "fyi").
		MessageID("t1@gmail.com").Body("sent through the wrong relay entirely").Build()
	return []*Email{
		ourEmail(hamN(0), "evil.com", "bob@gmial.com", "alice0@gmail.com", false, at(0)),             // layer 1: wrong relay
		ourEmail(archive, "gmial.com", "b@gmial.com", "a@ok.com", false, at(1)),                      // layer 2: archive
		ourEmail(spam, "gmial.com", "x@gmial.com", "w@offers-zone.ru", false, at(2)),                 // layer 2: score
		ourEmail(collab, "outlo0k.com", "y@outlo0k.com", "w@offers-zone.ru", false, at(3)),           // layer 3: tainted sender
		ourEmail(reflection, "gmial.com", "typoed@gmial.com", "news@list.example.com", false, at(4)), // layer 4
		ourEmail(smtp, "smtpverizon.net", "dave@verizon.net", "carol@gmail.com", true, at(5)),        // smtp typo
		ourEmail(hamN(1), "gmial.com", "bob@gmial.com", "alice1@gmail.com", false, at(6)),            // receiver typo
	}
}

// TestFunnelLayerAdmissions is the table-driven per-layer account of the
// fixture: how many emails each layer removed and how many survived.
func TestFunnelLayerAdmissions(t *testing.T) {
	results := testClassifier().Classify(funnelFixture())
	byLayer := map[int]int{}
	for _, r := range results {
		byLayer[r.Layer]++
	}
	want := map[int]int{1: 1, 2: 2, 3: 1, 4: 1, 0: 2}
	if !reflect.DeepEqual(byLayer, want) {
		t.Errorf("per-layer admission counts = %v, want %v", byLayer, want)
	}
	counts := CountByVerdict(results)
	if counts[VerdictSMTPTypo] != 1 || counts[VerdictReceiverTypo] != 1 {
		t.Errorf("survivor counts = %v", counts)
	}
}

// TestGoldenFunnelTrace pins the exact verdict sequence of the fixture
// in arrival order — a golden trace of one complete funnel run.
func TestGoldenFunnelTrace(t *testing.T) {
	results := testClassifier().Classify(funnelFixture())
	var trace []string
	for _, r := range results {
		trace = append(trace, fmt.Sprintf("L%d:%s", r.Layer, r.Verdict))
	}
	want := []string{
		"L1:spam:header",
		"L2:spam:archive",
		"L2:spam:score",
		"L3:spam:collaborative",
		"L4:reflection-typo",
		"L0:smtp-typo",
		"L0:receiver-typo",
	}
	if !reflect.DeepEqual(trace, want) {
		t.Errorf("funnel trace:\n got  %v\n want %v", trace, want)
	}
	// The score verdict must carry its rule hits.
	if r := results[2]; len(r.Rules) == 0 {
		t.Errorf("spam:score result carries no rule names: %+v", r)
	}
}

// TestFrequencyThresholdEdges pins Layer 5's strict-inequality edges:
// a frequency equal to the threshold survives, threshold+1 is filtered,
// and the pre-filter verdict is preserved in FreqOf.
func TestFrequencyThresholdEdges(t *testing.T) {
	const th = 3
	cfg := func() Config {
		return Config{
			OurDomains:       map[string]bool{"gmial.com": true},
			RcptThreshold:    th,
			SenderThreshold:  th,
			ContentThreshold: th,
		}
	}
	at := func(i int) time.Time { return t0.Add(time.Duration(i) * time.Minute) }

	// One email per (sender, rcpt, body) axis under test; the other two
	// axes stay unique per email.
	build := func(n int, sameRcpt, sameSender, sameBody bool) []*Email {
		emails := make([]*Email, n)
		for i := 0; i < n; i++ {
			rcpt, sender, body := fmt.Sprintf("r%d@gmial.com", i), fmt.Sprintf("s%d@ok.com", i), fmt.Sprintf("note %d nothing else", i)
			if sameRcpt {
				rcpt = "shared@gmial.com"
			}
			if sameSender {
				sender = "same@ok.com"
			}
			if sameBody {
				body = "identical short body text"
			}
			m := mailmsg.NewBuilder(sender, rcpt, "hi").
				MessageID(fmt.Sprintf("f%d@ok.com", i)).Body(body).Build()
			emails[i] = ourEmail(m, "gmial.com", rcpt, sender, false, at(i))
		}
		return emails
	}
	axes := []struct {
		name                           string
		sameRcpt, sameSender, sameBody bool
	}{
		{"rcpt", true, false, false},
		{"sender", false, true, false},
		{"content", false, false, true},
	}
	for _, ax := range axes {
		t.Run(ax.name, func(t *testing.T) {
			// Exactly at threshold: all survive.
			for _, r := range NewClassifier(cfg()).Classify(build(th, ax.sameRcpt, ax.sameSender, ax.sameBody)) {
				if r.Verdict != VerdictReceiverTypo {
					t.Fatalf("freq == threshold filtered: %+v", r)
				}
			}
			// One past threshold: all filtered, original verdict recorded.
			for _, r := range NewClassifier(cfg()).Classify(build(th+1, ax.sameRcpt, ax.sameSender, ax.sameBody)) {
				if r.Verdict != VerdictFrequency || r.Layer != 5 {
					t.Fatalf("freq > threshold kept: %+v", r)
				}
				if r.FreqOf != VerdictReceiverTypo {
					t.Fatalf("FreqOf = %v, want receiver-typo", r.FreqOf)
				}
			}
		})
	}
}

// TestFunnelEngineOracleVerdicts runs the fixture plus corpus spam and
// ham through the engine-path classifier and the stdlib-regex oracle
// funnel and requires identical verdicts, layers and rule hits
// throughout.
func TestFunnelEngineOracleVerdicts(t *testing.T) {
	mkEmails := func() []*Email {
		emails := funnelFixture()
		i := len(emails)
		for _, ds := range corpus.AllDatasets() {
			for j, lm := range corpus.Generate(ds) {
				if j >= 40 {
					break
				}
				emails = append(emails, ourEmail(lm.Msg, "gmial.com", "u@gmial.com",
					mailmsg.Addr(lm.Msg.From()), false, t0.Add(time.Duration(i)*time.Second)))
				i++
			}
		}
		return emails
	}
	cfg := Config{OurDomains: map[string]bool{"gmial.com": true, "outlo0k.com": true, "smtpverizon.net": true}}
	re := NewClassifier(cfg).Classify(mkEmails())
	ro := NewOracle(cfg).Classify(mkEmails())
	if len(re) != len(ro) {
		t.Fatalf("result lengths differ: %d vs %d", len(re), len(ro))
	}
	for i := range re {
		if re[i].Verdict != ro[i].Verdict || re[i].Layer != ro[i].Layer {
			t.Errorf("email %d: engine %v/L%d, oracle %v/L%d",
				i, re[i].Verdict, re[i].Layer, ro[i].Verdict, ro[i].Layer)
		}
		if !reflect.DeepEqual(re[i].Rules, ro[i].Rules) {
			t.Errorf("email %d rule hits differ: engine %v, oracle %v", i, re[i].Rules, ro[i].Rules)
		}
	}
}

// TestScorerEngineOracleScores requires the engine's regex evidence to
// equal the stdlib oracle's, and identical scores, rule-hit lists and
// IsSpam verdicts from the two, over every corpus message.
func TestScorerEngineOracleScores(t *testing.T) {
	s := NewScorer()
	for _, ds := range corpus.AllDatasets() {
		for j, lm := range corpus.Generate(ds) {
			if j >= 60 {
				break
			}
			fe, fo := messageFacts(lm.Msg), oracleFacts(&Email{Msg: lm.Msg})
			if fe != fo {
				t.Fatalf("%s msg %d: engine facts %+v, oracle %+v", ds, j, fe, fo)
			}
			se, he := s.Score(lm.Msg)
			so, ho := s.scoreWith(lm.Msg, fo)
			if se != so || !reflect.DeepEqual(he, ho) {
				t.Fatalf("%s msg %d: engine %.1f %v, oracle %.1f %v", ds, j, se, he, so, ho)
			}
			if s.IsSpam(lm.Msg) != (so >= s.Threshold) {
				t.Fatalf("%s msg %d: IsSpam differs", ds, j)
			}
		}
	}
}
