package spamfilter_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/mailmsg"
	"repro/internal/par"
	"repro/internal/spamfilter"
	"repro/internal/spamgen"
)

var splitT0 = time.Date(2016, 6, 10, 0, 0, 0, 0, time.UTC)

// splitDomains is the registered set the split tests classify against.
func splitDomains() map[string]bool {
	return map[string]bool{"gmial.com": true, "outlo0k.com": true, "smtpverizon.net": true}
}

// splitCorpus is the differential corpus: the funnel fixture, every
// corpus dataset's messages addressed through small recipient pools (so
// Layer 5's recipient counts cross their thresholds) with every third
// one sent from a shared sender pool (so spam taints ham senders for
// Layer 3), and spamgen campaign samples for a receiver and an
// SMTP-trap domain. Arrival times repeat, so Classify's stable sort is
// exercised too.
func splitCorpus() []*spamfilter.Email {
	emails := spamfilter.FunnelFixture()
	at := func(i int) time.Time { return splitT0.Add(time.Duration(i%97) * time.Minute) }
	i := 0
	for _, ds := range corpus.AllDatasets() {
		for j, lm := range corpus.Generate(ds) {
			if j >= 150 {
				break
			}
			server, rcpt, smtpTypo := "gmial.com", fmt.Sprintf("u%d@gmial.com", i%7), false
			if i%5 == 0 {
				server, rcpt, smtpTypo = "smtpverizon.net", fmt.Sprintf("p%d@verizon.net", i%3), true
			}
			sender := mailmsg.Addr(lm.Msg.From())
			if i%3 == 0 {
				sender = fmt.Sprintf("s%d@bulk.example", i%13)
			}
			emails = append(emails, &spamfilter.Email{
				Msg: lm.Msg, ServerDomain: server, RcptAddr: rcpt,
				SenderAddr: sender, SMTPTypoDomain: smtpTypo, Received: at(i),
			})
			i++
		}
	}
	for seed := int64(1); seed <= 3; seed++ {
		g := spamgen.New(spamgen.DefaultParams(), seed)
		for _, trap := range []bool{false, true} {
			domain := "outlo0k.com"
			if trap {
				domain = "smtpverizon.net"
			}
			for _, e := range g.Materialize(120, domain, trap) {
				e.Received = at(i)
				emails = append(emails, e)
				i++
			}
		}
	}
	return emails
}

// TestPrepareDecideMatchesOracle holds the split funnel to the plain
// single-function oracle in test code: identical Verdict, Layer, Rules
// and FreqOf for every email, email by email through ClassifyOne and
// after Classify's Layer 5, at the study's and the calibration's
// thresholds, with one worker and with eight.
func TestPrepareDecideMatchesOracle(t *testing.T) {
	defer par.SetWorkers(0)
	emails := splitCorpus()
	configs := map[string]spamfilter.Config{
		"default":     {OurDomains: splitDomains()},
		"calibration": {OurDomains: splitDomains(), RcptThreshold: 2, SenderThreshold: 1, ContentThreshold: 1},
	}
	same := func(t *testing.T, what string, got, want []spamfilter.Result) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d results, oracle %d", what, len(got), len(want))
		}
		verdicts := map[spamfilter.Verdict]int{}
		for i := range got {
			g, w := got[i], want[i]
			if g.Email != w.Email || g.Verdict != w.Verdict || g.Layer != w.Layer ||
				g.FreqOf != w.FreqOf || !reflect.DeepEqual(g.Rules, w.Rules) {
				t.Fatalf("%s email %d: got %v/L%d rules %v freqOf %v, oracle %v/L%d rules %v freqOf %v",
					what, i, g.Verdict, g.Layer, g.Rules, g.FreqOf, w.Verdict, w.Layer, w.Rules, w.FreqOf)
			}
			verdicts[g.Verdict]++
		}
		// The corpus must reach every verdict, or the comparison above
		// leaves a path untested.
		for v := spamfilter.VerdictSpamHeader; v <= spamfilter.VerdictSMTPTypo; v++ {
			if verdicts[v] == 0 && (what == "Classify" || v != spamfilter.VerdictFrequency) {
				t.Errorf("%s: no %v verdict in the corpus (%v)", what, v, verdicts)
			}
		}
	}
	for name, cfg := range configs {
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				par.SetWorkers(workers)
				want := spamfilter.NewOracle(cfg).Classify(emails)
				same(t, "Classify", spamfilter.NewClassifier(cfg).Classify(emails), want)

				c, o := spamfilter.NewClassifier(cfg), spamfilter.NewOracle(cfg)
				var got, wantOne []spamfilter.Result
				for _, e := range emails {
					got = append(got, c.ClassifyOne(e))
					wantOne = append(wantOne, o.ClassifyOne(e))
				}
				same(t, "ClassifyOne", got, wantOne)
			})
		}
	}
}

// TestClassifyOneConcurrent calls ClassifyOne from several goroutines
// on one classifier, as concurrent SMTP sessions do. Each goroutine
// owns a sender: it delivers that sender's blatant spam, then an
// innocuous note from the same sender (which Layer 3 must catch), then
// a note from a fresh sender (which must survive). Goroutines share no
// sender or body, so every verdict is fixed whatever the interleaving;
// run it under -race to check the classifier's own Layer 3 lock.
func TestClassifyOneConcurrent(t *testing.T) {
	c := spamfilter.NewClassifier(spamfilter.Config{OurDomains: splitDomains()})
	const goroutines, rounds = 8, 40
	email := func(sender, subject, body string, k int) *spamfilter.Email {
		msg := mailmsg.NewBuilder(sender, "bob@gmial.com", subject).
			MessageID(fmt.Sprintf("m%d@%s", k, mailmsg.AddrDomain(sender))).Body(body).Build()
		return &spamfilter.Email{Msg: msg, ServerDomain: "gmial.com", RcptAddr: "bob@gmial.com", SenderAddr: sender}
	}
	var wg sync.WaitGroup
	errs := make(chan string, goroutines*rounds)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < rounds; k++ {
				spammer := fmt.Sprintf("w%d@offers%d.ru", k, g)
				steps := []struct {
					e    *spamfilter.Email
					want spamfilter.Verdict
				}{
					{email(spammer, "WINNER!!! claim your prize",
						"dear friend click here act now 100% free viagra order now, only $9.99 at http://win.biz/now http://win.biz/again", 3*k), spamfilter.VerdictSpamScore},
					{email(spammer, "hello", fmt.Sprintf("just a short note %d %d", g, k), 3*k+1), spamfilter.VerdictSpamCollab},
					{email(fmt.Sprintf("alice%d.%d@gmail.com", g, k), "hi", fmt.Sprintf("see you at meeting %d %d", g, k), 3*k+2), spamfilter.VerdictReceiverTypo},
				}
				for _, st := range steps {
					if got := c.ClassifyOne(st.e).Verdict; got != st.want {
						errs <- fmt.Sprintf("goroutine %d round %d: %s got %v, want %v", g, k, st.e.SenderAddr, got, st.want)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
