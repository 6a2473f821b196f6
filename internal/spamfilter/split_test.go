package spamfilter_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"sort"
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
// SMTP-trap domain. Each dataset's first 40 messages come once more,
// each sent by its own From address to one shared recipient, and the
// chaos soak's messages close the corpus. Arrival times repeat, so
// Classify's stable sort is exercised too.
func splitCorpus(t testing.TB) []*spamfilter.Email {
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
			if j < 40 {
				emails = append(emails, &spamfilter.Email{
					Msg: lm.Msg, ServerDomain: "gmial.com", RcptAddr: "u@gmial.com",
					SenderAddr: mailmsg.Addr(lm.Msg.From()), Received: at(i),
				})
				i++
			}
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
	for _, e := range chaosEmails(t) {
		e.Received = at(i)
		emails = append(emails, e)
		i++
	}
	return emails
}

// chaosMessage is a copy of the i-th message the root package's chaos
// soak (chaos_test.go) sends; that soak checks every delivery is
// byte-identical to it, so a differential over these messages covers
// every email the soak's collector classifies.
func chaosMessage(i int) *mailmsg.Message {
	return mailmsg.NewBuilder("alice@gmail.com", fmt.Sprintf("u%d@gmial.com", i), fmt.Sprintf("chaos-%d", i)).
		Body("card 4111 1111 1111 1111 and ssn 078-05-1120\n").Build()
}

// chaosSHA256 is the SHA-256 of the soak's 12 messages' bytes in send
// order. chaos_test.go pins the same digest, so the copy cannot drift.
const chaosSHA256 = "728d4dde32bb3488f87c5fbe570318c5424a16a3717e1c0b703606cfeadcff95"

// chaosEmails parses the soak's 12 messages and addresses each as the
// soak's collector receives it.
func chaosEmails(t testing.TB) []*spamfilter.Email {
	h := sha256.New()
	var out []*spamfilter.Email
	for i := 0; i < 12; i++ {
		data := chaosMessage(i).Bytes()
		h.Write(data)
		msg, err := mailmsg.Parse(data)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, &spamfilter.Email{Msg: msg, ServerDomain: "gmial.com",
			RcptAddr: fmt.Sprintf("u%d@gmial.com", i), SenderAddr: "alice@gmail.com"})
	}
	if sum := hex.EncodeToString(h.Sum(nil)); sum != chaosSHA256 {
		t.Fatalf("chaos soak messages drifted from chaos_test.go: SHA-256 %s, want %s", sum, chaosSHA256)
	}
	return out
}

// TestPrepareDecideMatchesOracle holds the split funnel, whose regex
// questions the shared engine answers, to the plain single-function
// oracle in test code, whose stdlib regexps answer them: identical
// Verdict, Layer, Rules and FreqOf for every email, email by email
// through ClassifyOne and after Classify's Layer 5, at the study's and
// the calibration's thresholds, with one worker and with eight.
func TestPrepareDecideMatchesOracle(t *testing.T) {
	defer par.SetWorkers(0)
	emails := splitCorpus(t)
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

// memoPairs are hand-built emails in pairs that differ in one field
// only: Subject, Body or HTMLBody (different content, so the memo must
// miss) or From or Reply-To (same content, so the memo hits while the
// header checks must still see the difference).
func memoPairs() [][2]*spamfilter.Email {
	type msg struct{ from, replyTo, subject, body, html string }
	base := msg{"carol@gmail.com", "", "lunch", "see you at noon near the old market square", ""}
	long := "thanks for the notes from the meeting yesterday, the draft looks good and I will send the revised budget with two appendices before friday so we can review the numbers together"
	// Two spam phrases, a dollar amount and a .biz link score 3.7; a
	// third phrase in the subject lifts it over the threshold.
	pitch := msg{base.from, "", "lunch", "dear friend, order now: the deal is $12 at http://deals.biz/x", ""}
	pairs := []struct{ a, b msg }{
		{pitch, msg{pitch.from, "", "winner", pitch.body, ""}},
		{base, msg{base.from, "", base.subject, long, ""}},
		{msg{base.from, "", "digest", "", "<p>" + long + "</p>"},
			msg{base.from, "", "digest", "", "<p>you are receiving this, unsubscribe at http://a.example/u http://a.example/v</p>"}},
		{base, msg{"postmaster@gmail.com", "", base.subject, base.body, ""}},
		{base, msg{base.from, "dave@yahoo.com", base.subject, base.body, ""}},
	}
	email := func(m msg, k int) *spamfilter.Email {
		b := mailmsg.NewBuilder(m.from, "bob@gmial.com", m.subject).MessageID(fmt.Sprintf("p%d@gmail.com", k)).Body(m.body)
		if m.html != "" {
			b = b.HTML(m.html)
		}
		if m.replyTo != "" {
			b = b.Header("Reply-To", m.replyTo)
		}
		return &spamfilter.Email{Msg: b.Build(), ServerDomain: "gmial.com", RcptAddr: "bob@gmial.com",
			SenderAddr: "carol@gmail.com", Received: splitT0.Add(time.Duration(k) * time.Minute)}
	}
	out := make([][2]*spamfilter.Email, len(pairs))
	for i, p := range pairs {
		out[i] = [2]*spamfilter.Email{email(p.a, 2*i), email(p.b, 2*i+1)}
	}
	return out
}

// memoStream is more distinct contents than the memo holds, with 40
// recurring campaign bodies mixed in every third email, so the memo
// both evicts one-off bodies and promotes recurring ones.
func memoStream() []*spamfilter.Email {
	var out []*spamfilter.Email
	for i := 0; i < 2400; i++ {
		body := fmt.Sprintf("one-off note %d about the quarterly plan and the team offsite schedule for the spring with agenda items %d %d %d", i, i*7, i*11, i*13)
		if i%3 == 0 {
			body = fmt.Sprintf("campaign %d: dear friend, act now for the lowest prices on watches, bags and more, all shipped free from our warehouse", (i/3)%40)
		}
		msg := mailmsg.NewBuilder(fmt.Sprintf("s%d@mail%d.example", i%50, i%9), "u@gmial.com", fmt.Sprintf("note %d", i%5)).
			MessageID(fmt.Sprintf("m%d@mail.example", i)).Body(body).Build()
		out = append(out, &spamfilter.Email{Msg: msg, ServerDomain: "gmial.com", RcptAddr: fmt.Sprintf("u%d@gmial.com", i%11),
			SenderAddr: mailmsg.Addr(msg.From()), Received: splitT0.Add(time.Duration(i) * time.Second)})
	}
	return out
}

// freshPrepare is the memo's plain oracle: a classifier of its own for
// one email, so its memo never hits.
func freshPrepare(cfg spamfilter.Config, e *spamfilter.Email) spamfilter.Prepared {
	return spamfilter.NewClassifier(cfg).Prepare(e)
}

// freshClassify is Classify over freshPrepare: prepare every email
// on its own classifier, decide in arrival order, then Layer 5.
func freshClassify(cfg spamfilter.Config, emails []*spamfilter.Email) []spamfilter.Result {
	ordered := append([]*spamfilter.Email(nil), emails...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Received.Before(ordered[j].Received) })
	c := spamfilter.NewClassifier(cfg)
	prep := make([]spamfilter.Prepared, len(ordered))
	results := make([]spamfilter.Result, len(ordered))
	freq := spamfilter.NewFreqTables()
	for i, e := range ordered {
		prep[i] = freshPrepare(cfg, e)
		if results[i] = c.Decide(&prep[i]); results[i].Verdict.IsTrueTypo() {
			freq.Add(prep[i].Keys)
		}
	}
	for i := range results {
		c.ApplyLayer5(&results[i], prep[i].Keys, freq)
	}
	return results
}

// TestPrepareMemoMatchesFresh holds the content memo to freshPrepare:
// every Prepared field, and the ClassifyOne and Classify verdicts, must
// equal those of a classifier that never hits its memo — over the
// split corpus, the one-field pairs and a stream that overflows the
// memo, preparing concurrently on eight workers as well as on one, and
// with concurrent ClassifyOne callers.
func TestPrepareMemoMatchesFresh(t *testing.T) {
	defer par.SetWorkers(0)
	emails := append(splitCorpus(t), memoStream()...)
	cfg := spamfilter.Config{OurDomains: splitDomains()}
	for _, p := range memoPairs() {
		a, b := freshPrepare(cfg, p[0]), freshPrepare(cfg, p[1])
		b.Email = a.Email
		if reflect.DeepEqual(a, b) {
			t.Fatalf("pair %q / %q prepares identically, so it tests nothing", p[0].Msg.Subject(), p[1].Msg.Subject())
		}
		emails = append(emails, p[0], p[1])
	}
	want := make([]spamfilter.Prepared, len(emails))
	for i, e := range emails {
		want[i] = freshPrepare(cfg, e)
	}
	sameResult := func(what string, i int, g, w spamfilter.Result) {
		t.Helper()
		if g.Email != w.Email || g.Verdict != w.Verdict || g.Layer != w.Layer ||
			g.FreqOf != w.FreqOf || !reflect.DeepEqual(g.Rules, w.Rules) {
			t.Fatalf("%s email %d: got %v/L%d rules %v, fresh %v/L%d rules %v",
				what, i, g.Verdict, g.Layer, g.Rules, w.Verdict, w.Layer, w.Rules)
		}
	}
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			par.SetWorkers(workers)
			c := spamfilter.NewClassifier(cfg)
			for pass := 0; pass < 2; pass++ { // the second pass meets a warm memo
				got := make([]spamfilter.Prepared, len(emails))
				par.For(len(emails), func(i int) { got[i] = c.Prepare(emails[i]) })
				for i := range got {
					if !reflect.DeepEqual(got[i], want[i]) {
						t.Fatalf("pass %d email %d (%q): memo Prepare %+v, fresh %+v", pass, i, emails[i].Msg.Subject(), got[i], want[i])
					}
				}
			}

			c, oracle := spamfilter.NewClassifier(cfg), spamfilter.NewClassifier(cfg)
			for i, e := range emails {
				p := freshPrepare(cfg, e)
				sameResult("ClassifyOne", i, c.ClassifyOne(e), oracle.Decide(&p))
			}
			fresh := freshClassify(cfg, emails)
			for i, r := range spamfilter.NewClassifier(cfg).Classify(emails) {
				sameResult("Classify", i, r, fresh[i])
			}
		})
	}

	// Concurrent ClassifyOne callers share one memo. Layer 3 verdicts
	// depend on the interleaving, so each result is held to its own
	// email's Layer 1, 2 and 4 outcome: the same, or collaborative spam
	// in place of a non-spam verdict.
	c := spamfilter.NewClassifier(cfg)
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(emails); i += goroutines {
				r := c.ClassifyOne(emails[i])
				w := spamfilter.NewClassifier(cfg).Decide(&want[i])
				if r.Verdict == spamfilter.VerdictSpamCollab && !w.Verdict.IsSpamVerdict() {
					continue
				}
				if r.Verdict != w.Verdict || r.Layer != w.Layer || !reflect.DeepEqual(r.Rules, w.Rules) {
					t.Errorf("concurrent email %d: got %v/L%d rules %v, fresh %v/L%d rules %v",
						i, r.Verdict, r.Layer, r.Rules, w.Verdict, w.Layer, w.Rules)
				}
			}
		}(g)
	}
	wg.Wait()
}
