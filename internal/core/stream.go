package core

import (
	"math/rand"
	"sort"
	"time"

	"repro/internal/par"
	"repro/internal/simclock"
	"repro/internal/spamfilter"
)

// streamChunks drives Run's pass over the collection: generate
// StreamChunkDays-sized chunks of units on the par pool (par.MapAt keeps
// each unit on the same PRNG sub-stream as the unchunked par.Map), merge
// them in unit order, and drain every day that can no longer receive
// traffic (units only schedule into their own day or later, so a day is
// final once generation has moved past it). The pending queue bounds the
// working set; with a spill dir it stays bounded even when episodes
// trail their cause by many days.
//
// It emits two ordered event streams. onUnit fires once per generation
// unit in global unit order, the order the test oracle's merge appends
// in, with the unit's spam samples already prepared by samples on the
// worker that generated them. onDay fires once per non-outage day in day
// order with that day's traffic stably sorted by Received and prepared
// by traffic — the order the oracle's single global stable sort visits
// it in, because every email lands within its day and days are
// disjoint. The days one flush drains are prepared in a single par
// fan-out before they replay in order, so the callbacks run only the
// ordered part of the funnel.
func (s *Study) streamChunks(rates []typoRates, samples, traffic *spamfilter.Classifier,
	onUnit func(u genUnit, out *unitResult),
	onDay func(emails []pendEmail, prep []spamfilter.Prepared) error) error {
	sp, err := newSpillDir(s.spillFS, s.Cfg.SpillDir)
	if err != nil {
		return err
	}
	q := newPendQueue(sp, s.Cfg.SpillBudgetBytes)
	defer q.close()
	start := simclock.CollectionStart
	chunkDays := s.Cfg.StreamChunkDays
	if chunkDays <= 0 {
		chunkDays = 8
	}
	seed := par.SubSeed(s.Cfg.Seed, streamGenUnits)
	base, drained := 0, 0
	chunk := make([]genUnit, 0, chunkDays*len(s.Domains))
	flush := func(upTo int) error {
		if len(chunk) > 0 {
			outs := par.MapAt(seed, base, chunk,
				func(_ int, u genUnit, rng *rand.Rand) unitResult {
					out := s.generateUnit(u, rates[u.di], rng, start)
					out.prepared = make([]spamfilter.Prepared, len(out.samples))
					for i, e := range out.samples {
						out.prepared[i] = samples.Prepare(e)
					}
					return out
				})
			for k, u := range chunk {
				onUnit(u, &outs[k])
				for _, se := range outs[k].sched {
					if err := q.add(se.day, pendEmail{e: se.e, di: u.di, contaminant: se.contaminant}); err != nil {
						return err
					}
				}
			}
			base += len(chunk)
			chunk = chunk[:0]
		}
		var emails []pendEmail
		var ends []int
		for ; drained < upTo; drained++ {
			if s.inOutage(drained) {
				// The infrastructure was down: whatever landed is lost.
				q.drop(drained)
				continue
			}
			day, err := q.take(drained)
			if err != nil {
				return err
			}
			sort.SliceStable(day, func(i, j int) bool {
				return day[i].e.Received.Before(day[j].e.Received)
			})
			emails = append(emails, day...)
			ends = append(ends, len(emails))
		}
		prep := make([]spamfilter.Prepared, len(emails))
		par.For(len(emails), func(i int) { prep[i] = traffic.Prepare(emails[i].e) })
		lo := 0
		for _, end := range ends {
			if err := onDay(emails[lo:end], prep[lo:end]); err != nil {
				return err
			}
			lo = end
		}
		return nil
	}
	next := chunkDays
	for day := 0; day < s.Cfg.Days; day++ {
		if !s.inOutage(day) {
			for di := range s.Domains {
				chunk = append(chunk, genUnit{day: day, di: di})
			}
		}
		if day+1 >= next {
			if err := flush(day + 1); err != nil {
				return err
			}
			next = day + 1 + chunkDays
		}
	}
	return flush(s.Cfg.Days)
}

// calSurvivor is a calibration sample that cleared layers 1–4 during
// the pass; its Layer 5 fate is decided once the corpus-wide frequency
// tables are complete, just like Classify's second sweep.
type calSurvivor struct {
	isTrap bool
	keys   spamfilter.FreqKeys
}

// domainTally defers one domain's integer classification counts.
type domainTally struct {
	spam, filtered, spamEscaped, receiver, reflection, smtpTypo, smtpFreqFiltered int
}

// streamTally defers every integer classification contribution of Run.
// The test oracle (runOracle) performs all float volume allocations
// before any classification +1, so each accumulator sees "volume adds,
// then N unit increments"; Run reproduces that exact per-accumulator
// sequence by counting as verdicts become final and applying repeated
// += 1 at the end (never += N — float addition does not distribute).
type streamTally struct {
	domains map[string]*domainTally
	series  map[*simclock.DaySeries][]int
	days    int
}

func newStreamTally(days int) *streamTally {
	return &streamTally{
		domains: map[string]*domainTally{},
		series:  map[*simclock.DaySeries][]int{},
		days:    days,
	}
}

func (t *streamTally) domain(name string) *domainTally {
	dt := t.domains[name]
	if dt == nil {
		dt = &domainTally{}
		t.domains[name] = dt
	}
	return dt
}

// hit counts one deferred Add(when, 1), replicating DaySeries.Add's
// silent out-of-window drop.
func (t *streamTally) hit(ds *simclock.DaySeries, when time.Time) {
	if when.Before(ds.Start) {
		return
	}
	d := int(when.Sub(ds.Start) / (24 * time.Hour))
	if d >= t.days {
		return
	}
	bins := t.series[ds]
	if bins == nil {
		bins = make([]int, t.days)
		t.series[ds] = bins
	}
	bins[d]++
}

// apply folds the deferred counts into the result as unit increments.
func (t *streamTally) apply(res *Result) {
	addN := func(x *float64, n int) {
		for i := 0; i < n; i++ {
			*x++
		}
	}
	names := make([]string, 0, len(t.domains))
	for n := range t.domains {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		dt, st := t.domains[n], res.PerDomain[n]
		addN(&st.SpamYearly, dt.spam)
		addN(&st.FilteredYearly, dt.filtered)
		addN(&st.SpamEscapedYearly, dt.spamEscaped)
		addN(&st.ReceiverYearly, dt.receiver)
		addN(&st.ReflectionYearly, dt.reflection)
		addN(&st.SMTPTypoYearly, dt.smtpTypo)
		addN(&st.SMTPFreqFilteredYearly, dt.smtpFreqFiltered)
	}
	for ds, bins := range t.series {
		for d, n := range bins {
			addN(&ds.Counts[d], n)
		}
	}
}

// recordStreamed folds one email's final verdict into the tally. A
// contaminant scam that survived is contamination among the apparent
// typos, one the funnel caught is ordinary spam; every other email goes
// through recordTypoStreamed.
func (s *Study) recordStreamed(res *Result, t *streamTally, r spamfilter.Result, pe *pendEmail) error {
	d := &s.Domains[pe.di]
	if !pe.contaminant {
		return s.recordTypoStreamed(res, t, r, d)
	}
	dt := t.domain(d.Name)
	if !r.Verdict.IsTrueTypo() {
		dt.spam++
		return nil
	}
	dt.spamEscaped++
	if d.Kind == KindSMTPTrap {
		t.hit(res.SMTPTrueDaily, r.Email.Received)
	} else {
		t.hit(res.ReceiverTrueDaily, r.Email.Received)
	}
	return nil
}

// recordTypoStreamed folds one typo-candidate email's final verdict into
// the result: day series, per-domain stats, heatmap, attachments, vault.
// The integer counts are deferred into the tally; the sanitizer/vault
// path runs inline because vault record IDs depend on Put order, which
// the survivor log's replay visits in the test oracle's exact sequence.
func (s *Study) recordTypoStreamed(res *Result, t *streamTally, r spamfilter.Result, d *StudyDomain) error {
	dt := t.domain(d.Name)
	when := r.Email.Received
	isTrapSeries := d.Kind == KindSMTPTrap

	switch r.Verdict {
	case spamfilter.VerdictReceiverTypo:
		dt.receiver++
		if isTrapSeries {
			t.hit(res.SMTPTrueDaily, when)
		} else {
			t.hit(res.ReceiverTrueDaily, when)
		}
		return s.recordSensitive(res, r.Email, d)
	case spamfilter.VerdictSMTPTypo:
		dt.smtpTypo++
		t.hit(res.SMTPTrueDaily, when)
	case spamfilter.VerdictReflection:
		dt.reflection++
		dt.filtered++
		if isTrapSeries {
			t.hit(res.SMTPFilteredDaily, when)
		} else {
			t.hit(res.ReceiverFilteredDaily, when)
		}
	case spamfilter.VerdictFrequency:
		dt.filtered++
		if r.FreqOf == spamfilter.VerdictSMTPTypo {
			dt.smtpFreqFiltered++
			t.hit(res.SMTPFilteredDaily, when)
		} else if isTrapSeries {
			t.hit(res.SMTPFilteredDaily, when)
		} else {
			t.hit(res.ReceiverFilteredDaily, when)
		}
	default:
		dt.spam++
		if isTrapSeries {
			t.hit(res.SMTPSpamDaily, when)
		} else {
			t.hit(res.ReceiverSpamDaily, when)
		}
	}
	return nil
}
