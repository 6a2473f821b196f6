package repro

// One benchmark per table and figure of the paper's evaluation, plus
// substrate and ablation benches for the design choices DESIGN.md calls
// out. Experiment benches share one materialized suite (a full 225-day
// collection run and ecosystem snapshot) built outside the timer; each
// iteration then regenerates the experiment — the analysis that turns
// raw collection output into the paper's rows and series.

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/alexa"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/defend"
	"repro/internal/distance"
	"repro/internal/dnswire"
	"repro/internal/ecosys"
	"repro/internal/experiments"
	"repro/internal/mailmsg"
	"repro/internal/par"
	"repro/internal/sanitize"
	"repro/internal/smtpc"
	"repro/internal/smtpd"
	"repro/internal/spamfilter"
	"repro/internal/typogen"
	"repro/internal/users"
)

var (
	suiteOnce sync.Once
	suite     *experiments.Suite
)

func sharedSuite(b *testing.B) *experiments.Suite {
	b.Helper()
	suiteOnce.Do(func() {
		suite = experiments.NewSuite(20160604)
		if _, _, err := suite.Collection(); err != nil {
			b.Fatalf("materializing suite: %v", err)
		}
	})
	return suite
}

func benchExperiment(b *testing.B, run func() (*experiments.Experiment, error)) {
	b.Helper()
	sharedSuite(b)
	// One untimed run first: experiments lean on memoized inputs (corpus
	// caches, lazy DFA states), and at -benchtime=1x the single timed
	// iteration would otherwise measure cache construction, not analysis.
	if _, err := run(); err != nil {
		b.Fatal(err)
	}
	// Start the timed region GC-quiet: the shared suite keeps a large
	// heap alive, and a collection cycle landing inside a -benchtime=1x
	// iteration (milliseconds of assist against that heap) would swamp
	// the few-millisecond experiments the baselines record.
	runtime.GC()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := run()
		if err != nil {
			b.Fatal(err)
		}
		if !e.OK() {
			b.Fatalf("%s failed shape checks:\n%s", e.ID, e)
		}
	}
}

// ---------------------------------------------------------------------
// One bench per table/figure.

func BenchmarkTable1DNSSettings(b *testing.B) {
	benchExperiment(b, func() (*experiments.Experiment, error) { return sharedSuite(b).Table1() })
}

func BenchmarkTable2Sanitizer(b *testing.B) {
	benchExperiment(b, func() (*experiments.Experiment, error) { return sharedSuite(b).Table2() })
}

func BenchmarkTable3SpamFilter(b *testing.B) {
	benchExperiment(b, func() (*experiments.Experiment, error) { return sharedSuite(b).Table3() })
}

func BenchmarkFigure3ReceiverDaily(b *testing.B) {
	benchExperiment(b, func() (*experiments.Experiment, error) { return sharedSuite(b).Figure3() })
}

func BenchmarkFigure4SMTPDaily(b *testing.B) {
	benchExperiment(b, func() (*experiments.Experiment, error) { return sharedSuite(b).Figure4() })
}

func BenchmarkFigure5CumulativeDomains(b *testing.B) {
	benchExperiment(b, func() (*experiments.Experiment, error) { return sharedSuite(b).Figure5() })
}

func BenchmarkFigure6SensitiveHeatmap(b *testing.B) {
	benchExperiment(b, func() (*experiments.Experiment, error) { return sharedSuite(b).Figure6() })
}

func BenchmarkFigure7Attachments(b *testing.B) {
	benchExperiment(b, func() (*experiments.Experiment, error) { return sharedSuite(b).Figure7() })
}

func BenchmarkTable4SMTPSupport(b *testing.B) {
	benchExperiment(b, func() (*experiments.Experiment, error) { return sharedSuite(b).Table4() })
}

func BenchmarkFigure8Concentration(b *testing.B) {
	benchExperiment(b, func() (*experiments.Experiment, error) { return sharedSuite(b).Figure8() })
}

func BenchmarkFigure9MistakePopularity(b *testing.B) {
	benchExperiment(b, func() (*experiments.Experiment, error) { return sharedSuite(b).Figure9() })
}

func BenchmarkRegressionProjection(b *testing.B) {
	benchExperiment(b, func() (*experiments.Experiment, error) { return sharedSuite(b).Regression() })
}

func BenchmarkEconomics(b *testing.B) {
	benchExperiment(b, func() (*experiments.Experiment, error) { return sharedSuite(b).Economics() })
}

func BenchmarkTable5HoneyProbe(b *testing.B) {
	benchExperiment(b, func() (*experiments.Experiment, error) { return sharedSuite(b).Table5() })
}

func BenchmarkTable6MXDistribution(b *testing.B) {
	benchExperiment(b, func() (*experiments.Experiment, error) { return sharedSuite(b).Table6() })
}

// ---------------------------------------------------------------------
// Substrate benches: the hot paths under the experiments.

func BenchmarkTypoGeneration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if got := typogen.GenerateAll("outlook.com"); len(got) == 0 {
			b.Fatal("no typos")
		}
	}
}

func BenchmarkDamerauLevenshtein(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		distance.DamerauLevenshtein("10minutemail", "10minutemial")
	}
}

func BenchmarkDNSEncodeDecode(b *testing.B) {
	msg := dnswire.NewQuery(1, "smtp.gmial.com", dnswire.TypeMX)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		wire, err := dnswire.Encode(msg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := dnswire.Decode(wire); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSanitizeRedact(b *testing.B) {
	s := sanitize.New("bench-salt")
	text := "John Lavorato\nAmex 371385129301004 Exp 06/03\nssn 078-05-1120 call 412-268-5000\nBook us 3 rooms."
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Redact(text)
	}
}

// BenchmarkFunnelClassifyOne cycles 256 fixed emails through one
// classifier, so every content lookup hits the classifier's content
// memo: it measures the per-email envelope and header checks plus
// Layer 3. BenchmarkFunnelClassifyOneDistinct keeps the cost of working
// out a body's content facts visible.
func BenchmarkFunnelClassifyOne(b *testing.B) {
	benchClassifyOne(b, 256, false)
}

// BenchmarkFunnelClassifyOneDistinct cycles 4096 emails with distinct
// bodies — more than the content memo holds — so every email misses it
// and pays for its content facts.
func BenchmarkFunnelClassifyOneDistinct(b *testing.B) {
	benchClassifyOne(b, 4096, true)
}

// benchClassifyOne runs one untimed lap over the emails first, so that
// at -benchtime=1x the timed call measures the steady state (a memo
// hit, or a miss once the lap has evicted the email) rather than the
// classifier's first-call set-up.

func benchClassifyOne(b *testing.B, n int, distinct bool) {
	rng := rand.New(rand.NewSource(1))
	emails := make([]*spamfilter.Email, n)
	for i := range emails {
		msg := corpus.SpamMessage(rng, 0.3)
		if distinct {
			msg.Body += " ref " + strconv.Itoa(i)
		}
		emails[i] = &spamfilter.Email{
			Msg: msg, ServerDomain: "gmial.com",
			RcptAddr: "x@gmial.com", SenderAddr: mailmsg.Addr(msg.From()),
		}
	}
	c := spamfilter.NewClassifier(spamfilter.Config{OurDomains: map[string]bool{"gmial.com": true}})
	for _, e := range emails {
		c.ClassifyOne(e)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ClassifyOne(emails[i%len(emails)])
	}
}

func BenchmarkSMTPRoundTrip(b *testing.B) {
	srv, err := smtpd.NewServer(smtpd.Config{
		Hostname: "gmial.com",
		Deliver:  func(*smtpd.Envelope) error { return nil },
	})
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	bound := make(chan net.Addr, 1)
	go srv.ListenAndServe(ctx, "127.0.0.1:0", bound)
	addr := (<-bound).String()
	defer srv.Close()
	msg := mailmsg.NewBuilder("a@b.com", "c@gmial.com", "bench").Body("hello\n").Build().Bytes()
	client := &smtpc.Client{Timeout: 5 * time.Second}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := client.Send(ctx, addr, smtpc.ModePlain, "a@b.com", []string{"c@gmial.com"}, msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEcosystemGenerate(b *testing.B) {
	cfg := ecosys.Config{Targets: 100, UniverseSize: 1000, Seed: 1, BulkSquatters: 8, SharedMailHosts: 6}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if eco := ecosys.Generate(cfg); len(eco.Domains) == 0 {
			b.Fatal("empty ecosystem")
		}
	}
}

// ---------------------------------------------------------------------
// Parallelism benches: the same substrate at pinned worker counts. On a
// multi-core host the larger counts show the scaling of the par.Map
// sharding; output stays byte-identical at every setting (the
// seed-equivalence tests in ecosys, core, and experiments assert it).

func BenchmarkEcosystemGenerateParallel(b *testing.B) {
	cfg := ecosys.Config{Targets: 100, UniverseSize: 1000, Seed: 1, BulkSquatters: 8, SharedMailHosts: 6}
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			par.SetWorkers(w)
			defer par.SetWorkers(0)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if eco := ecosys.Generate(cfg); len(eco.Domains) == 0 {
					b.Fatal("empty ecosystem")
				}
			}
		})
	}
}

// BenchmarkParFor measures the pool's per-item dispatch: 4,096 items of
// a few µs of arithmetic each, so any per-item handoff cost shows
// against the work itself.
func BenchmarkParFor(b *testing.B) {
	const n = 4096
	out := make([]uint64, n)
	for _, w := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			par.SetWorkers(w)
			defer par.SetWorkers(0)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				par.For(n, func(j int) {
					x := uint64(j)
					for k := 0; k < 2000; k++ {
						x = x*6364136223846793005 + 1442695040888963407
					}
					out[j] = x
				})
			}
		})
	}
}

func BenchmarkSuiteAllParallel(b *testing.B) {
	s := sharedSuite(b)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			par.SetWorkers(w)
			defer par.SetWorkers(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				exps, err := s.All()
				if err != nil {
					b.Fatal(err)
				}
				if len(exps) != 15 {
					b.Fatalf("got %d experiments, want 15", len(exps))
				}
			}
		})
	}
}

// ---------------------------------------------------------------------
// Ablations (design choices from DESIGN.md).

// BenchmarkAblationScorerVsBayes compares the rule scorer (the paper's
// SpamAssassin stand-in) against the trainable naive Bayes on the TREC
// dataset, reporting each classifier's recall as a custom metric.
func BenchmarkAblationScorerVsBayes(b *testing.B) {
	msgs := corpus.Generate(corpus.DatasetTREC)
	train, test := msgs[:len(msgs)/2], msgs[len(msgs)/2:]

	b.Run("rules", func(b *testing.B) {
		scorer := spamfilter.NewScorer()
		b.ReportAllocs()
		var recall float64
		for i := 0; i < b.N; i++ {
			tp, fn := 0, 0
			for _, lm := range test {
				pred := scorer.IsSpam(lm.Msg) || spamfilter.HasForbiddenArchive(lm.Msg)
				if lm.Spam && pred {
					tp++
				} else if lm.Spam {
					fn++
				}
			}
			recall = float64(tp) / float64(tp+fn)
		}
		b.ReportMetric(recall, "recall")
	})
	b.Run("bayes", func(b *testing.B) {
		bayes := spamfilter.NewBayes()
		for _, lm := range train {
			bayes.Train(lm.Msg, lm.Spam)
		}
		b.ReportAllocs()
		var recall float64
		for i := 0; i < b.N; i++ {
			tp, fn := 0, 0
			for _, lm := range test {
				if lm.Spam && bayes.IsSpam(lm.Msg) {
					tp++
				} else if lm.Spam {
					fn++
				}
			}
			recall = float64(tp) / float64(tp+fn)
		}
		b.ReportMetric(recall, "recall")
	})
}

// BenchmarkAblationFunnelLayers measures what each funnel stage
// contributes: the share of a mixed corpus caught with layers 1-2 only
// versus the full five-layer funnel.
func BenchmarkAblationFunnelLayers(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	var emails []*spamfilter.Email
	for i := 0; i < 600; i++ {
		msg := corpus.CampaignMessage(rng, rng.Intn(40), 0.4)
		emails = append(emails, &spamfilter.Email{
			Msg: msg, ServerDomain: "gmial.com",
			RcptAddr:   mailmsg.Addr(msg.To()),
			SenderAddr: mailmsg.Addr(msg.From()),
			Received:   time.Date(2016, 6, 10, 0, 0, 0, 0, time.UTC).Add(time.Duration(i) * time.Minute),
		})
	}
	// RcptAddr domains vary; Layer 1 would flag them. Patch to our domain.
	for _, e := range emails {
		e.RcptAddr = "user@gmial.com"
	}
	b.Run("layers12", func(b *testing.B) {
		b.ReportAllocs()
		var caught float64
		for i := 0; i < b.N; i++ {
			scorer := spamfilter.NewScorer()
			n := 0
			for _, e := range emails {
				if spamfilter.HasForbiddenArchive(e.Msg) || scorer.IsSpam(e.Msg) {
					n++
				}
			}
			caught = float64(n) / float64(len(emails))
		}
		b.ReportMetric(caught, "caught")
	})
	b.Run("full-funnel", func(b *testing.B) {
		b.ReportAllocs()
		var caught float64
		for i := 0; i < b.N; i++ {
			c := spamfilter.NewClassifier(spamfilter.Config{
				OurDomains: map[string]bool{"gmial.com": true},
			})
			n := 0
			for _, r := range c.Classify(emails) {
				if !r.Verdict.IsTrueTypo() {
					n++
				}
			}
			caught = float64(n) / float64(len(emails))
		}
		b.ReportMetric(caught, "caught")
	})
}

// BenchmarkAblationTypingModel compares the default correction model
// against a no-verification variant (H2 off), reporting the surviving
// typo volume for the paper's flagship domain: verification is what
// suppresses visually obvious typos.
func BenchmarkAblationTypingModel(b *testing.B) {
	run := func(b *testing.B, m users.Model) {
		b.ReportAllocs()
		var survival float64
		for i := 0; i < b.N; i++ {
			survival = m.SurvivalProbability("outlook.com", "outlopk.com") /
				m.SurvivalProbability("outlook.com", "outlo0k.com")
		}
		b.ReportMetric(survival, "obvious/subtle")
	}
	b.Run("with-verification", func(b *testing.B) { run(b, users.DefaultModel()) })
	b.Run("no-verification", func(b *testing.B) {
		m := users.DefaultModel()
		m.CorrBase, m.CorrVisual, m.CorrPosition = 0, 0, 0
		run(b, m)
	})
}

// BenchmarkFullCollectionRun times the whole 225-day simulation — the
// substrate every figure rests on.
func BenchmarkFullCollectionRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig()
		cfg.Seed = 20160604 + int64(i)
		study, err := core.NewStudy(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := study.Run()
		if err != nil {
			b.Fatal(err)
		}
		if res.SurvivorsYearly <= 0 {
			b.Fatal("empty run")
		}
	}
}

// BenchmarkStudyThroughput drives a full collection run end-to-end
// through the streaming substrate — chunked generation with a Layer 5
// survivor replay, encrypted disk spill, log-structured on-disk vault —
// and reports two
// custom units beside the standard columns: emails/sec (materialized
// emails pushed through the five-layer funnel per wall-clock second)
// and peak_MB (maximum heap a background runtime.ReadMemStats sampler
// observed). benchjson keeps both in the committed BENCH_<n>.json, and
// CI ratchets peak_MB with -require so the flat-memory property of the
// streaming path cannot silently rot.
func BenchmarkStudyThroughput(b *testing.B) {
	b.ReportAllocs()

	stop := make(chan struct{})
	var peak atomic.Uint64
	go func() {
		var ms runtime.MemStats
		for {
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond):
			}
			runtime.ReadMemStats(&ms)
			for {
				cur := peak.Load()
				if ms.HeapAlloc <= cur || peak.CompareAndSwap(cur, ms.HeapAlloc) {
					break
				}
			}
		}
	}()

	var emails int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig()
		cfg.Seed = 20160604 + int64(i)
		cfg.Streaming = true
		cfg.SpillDir = b.TempDir()
		cfg.SpillBudgetBytes = 32 << 20
		cfg.VaultDir = b.TempDir()
		study, err := core.NewStudy(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := study.Run()
		if err != nil {
			b.Fatal(err)
		}
		if err := study.Vault.Close(); err != nil {
			b.Fatal(err)
		}
		if res.EmailsProcessed <= 0 || res.SurvivorsYearly <= 0 {
			b.Fatal("empty run")
		}
		emails += res.EmailsProcessed
	}
	b.StopTimer()
	close(stop)
	b.ReportMetric(float64(emails)/b.Elapsed().Seconds(), "emails/sec")
	b.ReportMetric(float64(peak.Load())/(1<<20), "peak_MB")
}

// BenchmarkAblationDefenseCorrector measures the Section 8 defense: the
// fraction of model-sampled surviving typos that the input-field
// corrector would have caught before the email left.
func BenchmarkAblationDefenseCorrector(b *testing.B) {
	uni := alexa.NewUniverse(2000, 5)
	corrector := defend.NewCorrector(uni)
	model := users.DefaultModel()
	model.CharErrorRate = 0.1 // accelerate mistakes to fill the sample
	rng := rand.New(rand.NewSource(6))
	b.ReportAllocs()
	var caught, missed int
	for i := 0; i < b.N; i++ {
		typed := model.SampleTypedDomain(rng, "gmail.com")
		if typed == "gmail.com" {
			continue
		}
		if _, ok := corrector.Check(typed); ok {
			caught++
		} else {
			missed++
		}
	}
	if caught+missed > 0 {
		b.ReportMetric(float64(caught)/float64(caught+missed), "caught-frac")
	}
}
