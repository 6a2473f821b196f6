package main

import (
	"math"
	"testing"
	"time"
)

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4),
// the rule the benchmark's spreads are judged by, including its
// extrapolation for tiny samples.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1.25, 9, 4}, [3]float64{1.8125, 3.75, 7.75}},
		{[]float64{2, 7}, [3]float64{0.75, 4.5, 8.25}},
		{[]float64{10, 10, 10, 20, 30}, [3]float64{10, 10, 25}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{
		{0.5, 3}, {0.25, 1.5}, {0.01, 1}, {0.99, 5},
	} {
		if got := quantile(xs, c.p); got != c.want {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("quantile sorted its input in place")
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %v, want 0", got)
	}
}

// TestP99NeedsTenBeyond checks the count of samples beyond p99: a p99 is
// supported from 1000 samples (ten beyond it), not from 999.
func TestP99NeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so summarize must sort
		}
		return xs
	}
	d := summarize(seq(1000))
	if d.P99 != 990.99 || d.BeyondP99 != 10 || !d.P99Supported {
		t.Errorf("1000 samples: p99=%v beyond=%d supported=%v, want 990.99, 10, true", d.P99, d.BeyondP99, d.P99Supported)
	}
	d = summarize(seq(999))
	if d.BeyondP99 != 9 || d.P99Supported {
		t.Errorf("999 samples: beyond=%d supported=%v, want 9, false", d.BeyondP99, d.P99Supported)
	}
	if d.Median != 500 || d.Min != 1 || d.Max != 999 {
		t.Errorf("999 samples: median=%v min=%v max=%v", d.Median, d.Min, d.Max)
	}
}

// TestFailuresCountAsMisses: a failed request is an infinite latency, so
// enough failures push p99 over any limit, and never produce NaN.
func TestFailuresCountAsMisses(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = 1
	}
	xs[98], xs[99] = math.Inf(1), math.Inf(1)
	if got := quantile(xs, 0.99); !math.IsInf(got, 1) {
		t.Errorf("p99 with 2%% failures = %v, want +Inf", got)
	}
	xs[98] = 1
	if got := quantile(xs, 0.5); got != 1 {
		t.Errorf("median with one failure = %v, want 1", got)
	}
}

// fakeClock is virtual time for the generator: sleepUntil jumps to the
// target, then overshoots by whatever late returns, as a descheduled
// generator would.
type fakeClock struct {
	t    time.Duration
	late func() time.Duration
}

func (c *fakeClock) now() time.Duration { return c.t }

func (c *fakeClock) sleepUntil(t time.Duration) {
	if t > c.t {
		c.t = t
	}
	c.t += c.late()
}

// TestDispatchRecordsLateness drives the generator on a fake clock: it
// releases every message once, in order, stamps each due on the k/rate
// schedule, and records exactly how late each release was. A release
// that falls behind does not shift later due times (open loop).
func TestDispatchRecordsLateness(t *testing.T) {
	k := 0
	clk := &fakeClock{late: func() time.Duration {
		k++
		if k == 3 {
			return 25 * time.Millisecond // one long stall
		}
		return 0
	}}
	recs := make([]msgRec, 10)
	var released []int
	dispatch(clk, 100, recs, func(i int) { released = append(released, i) })
	for i, r := range recs {
		if r.due != time.Duration(i)*10*time.Millisecond {
			t.Errorf("message %d due at %v, want %v", i, r.due, time.Duration(i)*10*time.Millisecond)
		}
		if released[i] != i {
			t.Fatalf("release order %v", released)
		}
	}
	// The stall at the third release makes it 25ms late; the next two due
	// times (30ms, 40ms) have already passed by then, so they go out late
	// too, and the generator is back on schedule from 50ms.
	wantLate := []time.Duration{0, 0, 25, 15, 5, 0, 0, 0, 0, 0}
	for i, r := range recs {
		if got := r.sent - r.due; got != wantLate[i]*time.Millisecond {
			t.Errorf("message %d late %v, want %v", i, got, wantLate[i]*time.Millisecond)
		}
	}
}

// simulate plays an open-loop step on virtual time: message k is due at
// k/rate, released late(k) after that, and served FIFO by conns
// connections that each take service per message.
func simulate(rate float64, n, conns int, service time.Duration, late func(k int) time.Duration) []msgRec {
	free := make([]time.Duration, conns)
	recs := make([]msgRec, n)
	for k := range recs {
		due := time.Duration(float64(k) / rate * float64(time.Second))
		sent := due + late(k)
		c := 0
		for i := range free {
			if free[i] < free[c] {
				c = i
			}
		}
		start := max(sent, free[c])
		free[c] = start + service
		recs[k] = msgRec{due: due, sent: sent, done: free[c]}
	}
	return recs
}

func noLate(int) time.Duration { return 0 }

func TestAccountBelowCapacity(t *testing.T) {
	// 2 connections at 1ms each sustain 2000/s; offer 500/s.
	recs := simulate(500, 1000, 2, time.Millisecond, noLate)
	st := account(recs, 500, 2, 25*time.Millisecond)
	if st.Growing || st.BacklogMax != 1 || st.BacklogEnd != 1 || st.Failed != 0 {
		t.Errorf("below capacity: growing=%v backlogMax=%d backlogEnd=%d failed=%d", st.Growing, st.BacklogMax, st.BacklogEnd, st.Failed)
	}
	if p := quantile(st.LatencyMs, 0.99); p != 1 {
		t.Errorf("below capacity: p99 = %vms, want the 1ms service time", p)
	}
	if !st.passes(25 * time.Millisecond) {
		t.Error("below capacity: step should pass")
	}
	if st.Achieved < 499 || st.Achieved > 501 {
		t.Errorf("achieved %v/s, want about the offered 500/s", st.Achieved)
	}
}

func TestAccountAboveCapacity(t *testing.T) {
	// Offer 4000/s for half a second to a system that sustains 2000/s:
	// about 1000 messages are still waiting when the last one is due.
	recs := simulate(4000, 2000, 2, time.Millisecond, noLate)
	st := account(recs, 4000, 2, 25*time.Millisecond)
	if !st.Growing || st.passes(25*time.Millisecond) {
		t.Errorf("above capacity: growing=%v, passes=%v; want growing and failing", st.Growing, st.passes(25*time.Millisecond))
	}
	if st.BacklogEnd < 990 || st.BacklogEnd > 1010 || st.BacklogMax != st.BacklogEnd {
		t.Errorf("above capacity: backlog end %d max %d, want about 1000 and rising to the end", st.BacklogEnd, st.BacklogMax)
	}
	if st.Achieved < 1990 || st.Achieved > 2010 {
		t.Errorf("achieved %v/s, want the 2000/s capacity", st.Achieved)
	}
}

// TestAccountLatencyFromDue: a late generator delays messages, and the
// latency includes that delay because it runs from the due time.
func TestAccountLatencyFromDue(t *testing.T) {
	late := func(k int) time.Duration {
		if k%10 == 0 {
			return 30 * time.Millisecond
		}
		return 0
	}
	recs := simulate(100, 100, 2, time.Millisecond, late)
	st := account(recs, 100, 2, 25*time.Millisecond)
	if got := quantile(st.LateMs, 0.99); got != 30 {
		t.Errorf("generator late p99 = %vms, want 30ms", got)
	}
	if got := quantile(st.LatencyMs, 0.99); got != 31 {
		t.Errorf("latency p99 = %vms, want 31ms (30ms late + 1ms service)", got)
	}
	if st.passes(25 * time.Millisecond) {
		t.Error("a step whose p99 is 31ms passed a 25ms limit")
	}
}

func TestAccountFailures(t *testing.T) {
	recs := simulate(100, 100, 2, time.Millisecond, noLate)
	recs[5].err = errTest
	recs[6].err = errTest
	st := account(recs, 100, 2, 25*time.Millisecond)
	if st.Failed != 2 {
		t.Errorf("failed = %d, want 2", st.Failed)
	}
	if st.passes(25 * time.Millisecond) {
		t.Error("2% failures must miss a p99 limit")
	}
}

var errTest = testError("refused")

type testError string

func (e testError) Error() string { return string(e) }
