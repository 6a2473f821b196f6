package corpus

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/mailmsg"
	"repro/internal/par"
)

// campaignOracle is CampaignMessage without the skeleton memo: the
// campaign body rebuilt from its own PRNG on every call.
func campaignOracle(rng *rand.Rand, id int, evasion float64) *mailmsg.Message {
	msg := SpamMessage(par.Rand(13, id), evasion)
	msg.SetHeader("To", PersonAddr(rng, pick(rng, []string{"gmail.com", "hotmail.com", "outlook.com", "yahoo.com"})))
	msg.SetHeader("Message-Id", fmt.Sprintf("<c%d-%d@spam.example>", id, rng.Int63()))
	return msg
}

var oracleEvasions = []float64{0, 0.2, 0.25, 0.72, 1}

// TestCampaignMessageMatchesOracle checks the memoized build is byte
// for byte the plain one, on cold and warm skeletons alike, and leaves
// the caller's PRNG in the same state.
func TestCampaignMessageMatchesOracle(t *testing.T) {
	draw := rand.New(rand.NewSource(1))
	got, want := rand.New(rand.NewSource(2)), rand.New(rand.NewSource(2))
	for i := 0; i < 3000; i++ {
		id, ev := draw.Intn(500), oracleEvasions[draw.Intn(len(oracleEvasions))]
		g, w := CampaignMessage(got, id, ev).Bytes(), campaignOracle(want, id, ev).Bytes()
		if !bytes.Equal(g, w) {
			t.Fatalf("draw %d (campaign %d, evasion %v): memoized message differs from plain build", i, id, ev)
		}
	}
	if got.Int63() != want.Int63() {
		t.Fatal("memoized build left the caller's PRNG in a different state")
	}
}

// TestCampaignMessageMutationIsolated mutates returned messages every
// way a caller can and checks later messages of the same campaign are
// unaffected.
func TestCampaignMessageMutationIsolated(t *testing.T) {
	// A blatant campaign carrying an attachment, so its bytes are at risk.
	id := -1
	for c := 0; c < 400 && id < 0; c++ {
		if len(SpamMessage(par.Rand(13, c), 0).Attachments) > 0 {
			id = c
		}
	}
	if id < 0 {
		t.Fatal("no campaign with an attachment among 400")
	}
	got, want := rand.New(rand.NewSource(3)), rand.New(rand.NewSource(3))
	for i := 0; i < 5; i++ {
		m := CampaignMessage(got, id, 0)
		if w := campaignOracle(want, id, 0).Bytes(); !bytes.Equal(m.Bytes(), w) {
			t.Fatalf("message %d differs from plain build after earlier mutations", i)
		}
		m.SetHeader("Subject", "mutated")
		m.AddHeader("From", "second@mutated.example")
		m.SetHeader("X-Mutated", "yes")
		m.Body = "mutated"
		m.Attachments[0].Data[0] ^= 0xff
		m.Attachments[0].Filename = "mutated.exe"
		m.Attachments = append(m.Attachments, mailmsg.Attachment{Filename: "extra.zip"})
	}
}

// TestCampaignMessageConcurrent builds cold and warm skeletons from par
// workers at once; under -race it covers the memo's lock.
func TestCampaignMessageConcurrent(t *testing.T) {
	defer par.SetWorkers(0)
	par.SetWorkers(4)
	const seed = 41
	type draw struct {
		id int
		ev float64
	}
	draws := make([]draw, 2000)
	dr := rand.New(rand.NewSource(seed))
	for i := range draws {
		// An evasion level no other test uses keeps some skeletons cold.
		draws[i] = draw{dr.Intn(400), []float64{0.25, 0.33}[dr.Intn(2)]}
	}
	got := par.Map(seed, draws, func(_ int, d draw, rng *rand.Rand) []byte {
		return CampaignMessage(rng, d.id, d.ev).Bytes()
	})
	for i, d := range draws {
		if w := campaignOracle(par.Rand(seed, i), d.id, d.ev).Bytes(); !bytes.Equal(got[i], w) {
			t.Fatalf("draw %d (campaign %d, evasion %v): concurrent build differs from plain build", i, d.id, d.ev)
		}
	}
}
