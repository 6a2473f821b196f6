package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// clock is the time source of the open-loop generator: offsets from the
// start of a step. The real one reads the monotonic clock; tests substitute
// a fake one to check lateness accounting without sleeping.
type clock interface {
	now() time.Duration
	sleepUntil(t time.Duration)
}

type realClock struct{ t0 time.Time }

func newRealClock() realClock { return realClock{t0: time.Now()} }

func (c realClock) now() time.Duration { return time.Since(c.t0) }

func (c realClock) sleepUntil(t time.Duration) {
	if d := t - c.now(); d > 0 {
		time.Sleep(d)
	}
}

// msgRec is one offered message's timeline, as offsets from its step's
// start. Latency runs from due, not from sent, so a stalled generator or a
// full connection queue still counts against the system.
type msgRec struct {
	due  time.Duration // when the schedule said to send it
	sent time.Duration // when the generator released it to the connections
	done time.Duration // when the send returned
	err  error
}

// dispatch is the generator: it releases message k at its due time k/rate
// whatever the system is doing (open loop), and records how late each
// release was. release must not block.
func dispatch(clk clock, rate float64, recs []msgRec, release func(k int)) {
	interval := time.Duration(float64(time.Second) / rate)
	for k := range recs {
		due := time.Duration(k) * interval
		clk.sleepUntil(due)
		recs[k].due, recs[k].sent = due, clk.now()
		release(k)
	}
}

// runStep offers n messages at rate over conns connections and returns
// their timelines. send(k) delivers message k; its clock offsets come from
// the same real clock as dispatch.
func runStep(rate float64, n, conns int, send func(k int) error) []msgRec {
	recs := make([]msgRec, n)
	clk := newRealClock()
	// Sized to the number of sends, so the generator never blocks on a
	// stalled system: the queue is the backlog.
	queue := make(chan int, n)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range queue {
				recs[k].err = send(k)
				recs[k].done = clk.now()
			}
		}()
	}
	dispatch(clk, rate, recs, func(k int) { queue <- k })
	close(queue)
	wg.Wait()
	return recs
}

// stepStats is the accounting of one open-loop step.
type stepStats struct {
	Failed     int
	LatencyMs  []float64 // due→done per message; +Inf for a failed one
	LateMs     []float64 // sent−due per message: how late the generator ran
	BacklogMax int       // most messages due but not yet done, at any due instant
	BacklogEnd int       // the same, at the last due instant
	// Growing is set when the backlog left at the last due instant is more
	// than the system could clear within the latency limit plus one message
	// per connection: the offered rate is above what it sustains.
	Growing bool
	// Achieved is messages completed per second, from the first due time
	// to the last completion.
	Achieved float64
}

// account turns a step's timelines into latency, lateness and backlog.
func account(recs []msgRec, rate float64, conns int, limit time.Duration) stepStats {
	var st stepStats
	if len(recs) == 0 {
		return st
	}
	dones := make([]time.Duration, 0, len(recs))
	var last time.Duration
	for _, r := range recs {
		st.LateMs = append(st.LateMs, ms(r.sent-r.due))
		if r.err != nil {
			st.Failed++
			st.LatencyMs = append(st.LatencyMs, math.Inf(1))
		} else {
			st.LatencyMs = append(st.LatencyMs, ms(r.done-r.due))
		}
		dones = append(dones, r.done)
		if r.done > last {
			last = r.done
		}
	}
	sort.Slice(dones, func(i, j int) bool { return dones[i] < dones[j] })
	// Backlog at each due instant: offered so far minus finished so far.
	finished := 0
	for k, r := range recs {
		for finished < len(dones) && dones[finished] <= r.due {
			finished++
		}
		b := k + 1 - finished
		if b > st.BacklogMax {
			st.BacklogMax = b
		}
		st.BacklogEnd = b
	}
	st.Growing = float64(st.BacklogEnd) > rate*limit.Seconds()+float64(conns)
	if span := last - recs[0].due; span > 0 {
		st.Achieved = float64(len(recs)-st.Failed) / span.Seconds()
	}
	return st
}

// passes reports whether the step met the latency limit on its p99 (with
// failures counted as misses) without a growing backlog.
func (st stepStats) passes(limit time.Duration) bool {
	return !st.Growing && quantile(st.LatencyMs, 0.99) <= ms(limit)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
