package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/par"
	"repro/internal/simclock"
	"repro/internal/spamfilter"
)

// runOracle is the plain materialized collection run, kept in test code
// as the reference Run must reproduce byte for byte. It generates every
// unit in one par.Map, merges their outputs in unit order, collects the
// typo traffic in landing-day order, and classifies the calibration
// sample and the typo traffic each with one batch spamfilter.Classify
// call, folding every verdict into the result at once. Run reaches the
// same bytes with a bounded working set: chunked generation, per-email
// Decide, a survivor log replayed through Layer 5 and deferred integer
// counts.
func (s *Study) runOracle() (*Result, error) {
	rates := s.typoRatesByDomain()
	ourDomains := s.ourDomainSet()
	classifier := spamfilter.NewClassifier(spamfilter.Config{OurDomains: ourDomains})

	start := simclock.CollectionStart
	res := s.newResult(start)

	// Materialized spam samples, classified post hoc so Layer 5 frequency
	// filtering sees the repeats; aggregate volumes recorded for later
	// allocation once the calibration fractions are known.
	volumes := make([]float64, 0, s.Cfg.Days*len(s.Domains))
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

	// ---- Parallel generation, in unit order so the merge below
	// reproduces the sequential loop's append order exactly.
	units := s.units()
	unitOut := par.Map(par.SubSeed(s.Cfg.Seed, streamGenUnits), units,
		func(i int, u genUnit, rng *rand.Rand) unitResult {
			return s.generateUnit(u, rates[u.di], rng, start)
		})

	// ---- Ordered merge, identical to the sequential interleaving.
	for k, u := range units {
		out := unitOut[k]
		d := &s.Domains[u.di]
		for _, e := range out.samples {
			sampleTrap[e] = d.Kind == KindSMTPTrap
		}
		spamSamples = append(spamSamples, out.samples...)
		volumes = append(volumes, out.volume)
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
	s.allocateVolumes(res, cal, volumes)

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
		if err := s.recordTypoResult(res, r, d); err != nil {
			return nil, err
		}
	}

	res.EmailsProcessed = len(spamSamples) + len(allTypoEmails)
	s.annualize(res)
	return res, nil
}

// recordTypoResult folds one classified typo-candidate email into the
// result at once: day series, per-domain stats, heatmap, attachments,
// vault.
func (s *Study) recordTypoResult(res *Result, r spamfilter.Result, d *StudyDomain) error {
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
		return s.recordSensitive(res, r.Email, d)
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
	return nil
}

// resultString renders a Result in full precision and stable order; byte
// equality means every analysis downstream would see identical data.
func resultString(res *Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "days=%d\n", res.Days)
	series := func(name string, s *simclock.DaySeries) {
		fmt.Fprintf(&sb, "%s:", name)
		for _, c := range s.Counts {
			fmt.Fprintf(&sb, " %x", c)
		}
		sb.WriteByte('\n')
	}
	series("recvSpam", res.ReceiverSpamDaily)
	series("recvFilt", res.ReceiverFilteredDaily)
	series("recvTrue", res.ReceiverTrueDaily)
	series("smtpSpam", res.SMTPSpamDaily)
	series("smtpFilt", res.SMTPFilteredDaily)
	series("smtpTrue", res.SMTPTrueDaily)

	names := make([]string, 0, len(res.PerDomain))
	for n := range res.PerDomain {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		st := res.PerDomain[n]
		fmt.Fprintf(&sb, "dom %s spam=%x filt=%x recv=%x refl=%x smtp=%x freq=%x esc=%x\n",
			n, st.SpamYearly, st.FilteredYearly, st.ReceiverYearly, st.ReflectionYearly,
			st.SMTPTypoYearly, st.SMTPFreqFilteredYearly, st.SpamEscapedYearly)
	}
	for _, n := range names {
		hm := res.SensitiveHeatmap[n]
		labels := make([]string, 0, len(hm))
		for l := range hm {
			labels = append(labels, l)
		}
		sort.Strings(labels)
		for _, l := range labels {
			fmt.Fprintf(&sb, "heat %s %s %d\n", n, l, hm[l])
		}
	}
	exts := make([]string, 0, len(res.AttachmentExts))
	for e := range res.AttachmentExts {
		exts = append(exts, e)
	}
	sort.Strings(exts)
	for _, e := range exts {
		fmt.Fprintf(&sb, "ext %s %d\n", e, res.AttachmentExts[e])
	}
	fmt.Fprintf(&sb, "persistence=%x sizes=%v\n", res.SMTPPersistence, res.SMTPEpisodeSizes)
	fmt.Fprintf(&sb, "totals %x %x %x %x %x %x %x %x %x %x %d %x\n",
		res.TotalYearly, res.ReceiverCandidateYearly, res.SMTPCandidateYearly,
		res.SurvivorsYearly, res.CorrectedSurvivorsYearly, res.ContaminationYearly,
		res.TrueReceiverYearly, res.ReflectionYearly, res.SMTPTypoYearlyLow,
		res.SMTPTypoYearlyHigh, res.VaultRecords, res.AuditPrecision)
	return sb.String()
}
