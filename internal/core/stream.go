package core

import (
	"math/rand"
	"sort"
	"time"

	"repro/internal/par"
	"repro/internal/simclock"
	"repro/internal/spamfilter"
)

// timeFromUnixNano restores a Received timestamp from its spill wire
// form; instants survive the round trip exactly.
func timeFromUnixNano(ns int64) time.Time { return time.Unix(0, ns).UTC() }

// streamSink receives the chunked run's two ordered event streams:
// onUnit fires once per generation unit in global unit order (the exact
// order Run's sequential merge appends in), onDay fires once per
// non-outage day in day order with that day's traffic already stably
// sorted by Received — which is the same order the materialized path's
// single global stable sort visits them in, because every email lands
// within its day and days are disjoint. Every email arrives with its
// spamfilter.Prepare evidence, computed on the par pool, so the
// callbacks run only the ordered part of the funnel.
type streamSink struct {
	// samples prepares each unit's spam samples on the worker that
	// generated them.
	samples *spamfilter.Classifier
	// traffic prepares each drained day's typo-candidate emails.
	traffic *spamfilter.Classifier
	onUnit  func(u genUnit, out *unitResult)
	onDay   func(day int, emails []pendEmail, prep []spamfilter.Prepared) error
}

// streamChunks drives the pass over the collection: generate
// StreamChunkDays-sized chunks of units on the par pool (par.MapAt keeps
// each unit on the same PRNG sub-stream as the unchunked par.Map), merge
// them in unit order, and drain every day that can no longer receive
// traffic (units only schedule into their own day or later, so a day is
// final once generation has moved past it). The days one flush drains
// are prepared in a single par fan-out before they replay in order. The
// pending queue bounds the working set; with a spill dir it stays
// bounded even when episodes trail their cause by many days.
func (s *Study) streamChunks(rates []typoRates, sink streamSink) error {
	q, err := newPendQueue(s.Cfg.SpillDir, "pending", s.Cfg.SpillBudgetBytes)
	if err != nil {
		return err
	}
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
						out.prepared[i] = sink.samples.Prepare(e)
					}
					return out
				})
			for k, u := range chunk {
				sink.onUnit(u, &outs[k])
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
		var days, ends []int
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
			days, ends = append(days, drained), append(ends, len(emails))
		}
		prep := make([]spamfilter.Prepared, len(emails))
		par.For(len(emails), func(i int) { prep[i] = sink.traffic.Prepare(emails[i].e) })
		lo := 0
		for k, day := range days {
			if err := sink.onDay(day, emails[lo:ends[k]], prep[lo:ends[k]]); err != nil {
				return err
			}
			lo = ends[k]
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

// streamTally defers every integer classification contribution of the
// streaming run. The materialized path performs all float volume
// allocations before any classification +1, so each accumulator sees
// "volume adds, then N unit increments"; the streaming run reproduces
// that exact per-accumulator sequence by counting as verdicts become
// final and applying repeated += 1 at the end (never += N — float
// addition does not distribute).
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

// runStreaming is Run's chunked equivalent: byte-identical output with
// a working set bounded by the chunk size, the pending queue's spill
// budget and the (small) corpus-wide frequency tables, instead of the
// whole materialized collection.
//
// Layer 5 of the funnel is corpus-wide, so no email can be given its
// final verdict before the whole window has been seen. One pass streams
// generation, decides every email through layers 1–4 in arrival order,
// and harvests the calibration tallies and the Layer 5 frequency
// tables. Every email a layer 1–4 filter caught is final then and is
// counted at once; each survivor goes, in arrival order, to a survivor
// log with its verdict and keys. Once the pass is over, the unit
// volumes are allocated in unit order and the log replays through
// ApplyLayer5 with the completed tables — exactly the decomposition
// Classify performs in one sweep.
func (s *Study) runStreaming(rates []typoRates) (*Result, error) {
	ourDomains := s.ourDomainSet()
	start := simclock.CollectionStart
	res := s.newResult(start)

	survivors, err := newSurvivorLog(s.Cfg.SpillDir)
	if err != nil {
		return nil, err
	}
	defer survivors.close()

	calCls := spamfilter.NewClassifier(spamfilter.Config{
		OurDomains:       ourDomains,
		RcptThreshold:    2,
		SenderThreshold:  1,
		ContentThreshold: 1,
	})
	cal := map[bool]*spamCalib{false: {}, true: {}}
	calFreq := spamfilter.NewFreqTables()
	var calSurv []calSurvivor
	cls := spamfilter.NewClassifier(spamfilter.Config{OurDomains: ourDomains})
	mainFreq := spamfilter.NewFreqTables()
	tally := newStreamTally(s.Cfg.Days)
	volumes := make([]float64, 0, s.Cfg.Days*len(s.Domains)) // unit order
	emailsSeen := 0

	err = s.streamChunks(rates, streamSink{
		samples: calCls,
		traffic: cls,
		onUnit: func(u genUnit, out *unitResult) {
			isTrap := s.Domains[u.di].Kind == KindSMTPTrap
			// Calibration samples arrive nondecreasing in Received
			// (day-major at a fixed hour), so deciding them here in
			// unit order matches calCls.Classify's stable sort exactly.
			for i := range out.prepared {
				p := &out.prepared[i]
				r := calCls.Decide(p)
				c := cal[isTrap]
				c.total++
				switch {
				case r.Verdict.IsSpamVerdict():
					c.spamV++
				case r.Verdict == spamfilter.VerdictReflection:
					c.filtered++
				default:
					calFreq.Add(p.Keys)
					calSurv = append(calSurv, calSurvivor{isTrap: isTrap, keys: p.Keys})
				}
			}
			emailsSeen += len(out.prepared)
			volumes = append(volumes, out.volume)
			res.SMTPPersistence = append(res.SMTPPersistence, out.persistence...)
			res.SMTPEpisodeSizes = append(res.SMTPEpisodeSizes, out.episodeSizes...)
		},
		onDay: func(day int, emails []pendEmail, prep []spamfilter.Prepared) error {
			for i := range emails {
				pe := &emails[i]
				r := cls.Decide(&prep[i])
				if !r.Verdict.IsTrueTypo() {
					s.recordStreamed(res, tally, r, pe)
					continue
				}
				mainFreq.Add(prep[i].Keys)
				pe.verdict, pe.keys = r.Verdict, prep[i].Keys
				survivors.add(*pe)
			}
			emailsSeen += len(emails)
			return survivors.seal()
		},
	})
	if err != nil {
		return nil, err
	}

	// Resolve the deferred calibration Layer 5 now the corpus-wide
	// frequencies are complete, then release the calibration state and
	// the pass's classifier: the replay needs only the fraction
	// tallies, mainFreq and the default Layer 5 thresholds.
	for _, sv := range calSurv {
		c := cal[sv.isTrap]
		if calCls.KeysExceed(calFreq, sv.keys) {
			c.filtered++
		} else {
			c.escaped++
		}
	}
	calSurv, calFreq, cls = nil, nil, nil

	s.allocateVolumes(res, cal, volumes)
	volumes = nil

	layer5 := spamfilter.NewClassifier(spamfilter.Config{OurDomains: ourDomains})
	err = survivors.drain(func(pe *pendEmail) error {
		r := spamfilter.Result{Email: pe.e, Verdict: pe.verdict}
		layer5.ApplyLayer5(&r, pe.keys, mainFreq)
		s.recordStreamed(res, tally, r, pe)
		return nil
	})
	if err != nil {
		return nil, err
	}

	tally.apply(res)
	res.EmailsProcessed = emailsSeen
	s.annualize(res)
	return res, nil
}

// recordStreamed folds one email's final verdict into the tally. A
// contaminant scam that survived is contamination among the apparent
// typos, one the funnel caught is ordinary spam; every other email goes
// through recordTypoStreamed.
func (s *Study) recordStreamed(res *Result, t *streamTally, r spamfilter.Result, pe *pendEmail) {
	d := &s.Domains[pe.di]
	if !pe.contaminant {
		s.recordTypoStreamed(res, t, r, d)
		return
	}
	dt := t.domain(d.Name)
	if !r.Verdict.IsTrueTypo() {
		dt.spam++
		return
	}
	dt.spamEscaped++
	if d.Kind == KindSMTPTrap {
		t.hit(res.SMTPTrueDaily, r.Email.Received)
	} else {
		t.hit(res.ReceiverTrueDaily, r.Email.Received)
	}
}

// recordTypoStreamed mirrors recordTypoResult with the integer counts
// deferred into the tally; the sanitizer/vault path runs inline because
// vault record IDs depend on Put order, which the survivor log's replay
// visits in the materialized loop's exact sequence.
func (s *Study) recordTypoStreamed(res *Result, t *streamTally, r spamfilter.Result, d *StudyDomain) {
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
		s.recordSensitive(res, r.Email, d)
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
}
