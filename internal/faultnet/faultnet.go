// Package faultnet is a deterministic fault-injection transport for the
// collection pipeline's tests. The paper's infrastructure ran unattended
// against the open Internet for seven months (Section 4), where
// connections stall, reset mid-DATA and resolvers flap; faultnet
// reproduces exactly those conditions on localhost, seeded, so every
// failure sequence replays bit-for-bit.
//
// A *Net wraps the three transport shapes the pipeline uses — dialers
// (smtpc, probe, whois, resolve's TCP fallback), stream listeners
// (smtpd, whois) and packet conns (dnsserve, resolve's UDP path) — and
// executes a Plan of per-direction faults: injected latency, partial
// reads, write fragmentation, mid-stream connection reset, dial refusal
// and dial timeout, byte truncation, bandwidth caps, and datagram drop.
//
// Determinism contract: every connection gets its own PRNG derived from
// (Net seed, connection sequence number), so the fault stream of
// connection k depends only on the seed and k — never on scheduling,
// wall time, or other connections. A workload that dials (or accepts)
// in a deterministic order therefore produces an identical Trace and
// identical outcomes on every run. Faults that would need real waiting
// to observe (dial timeout) are synthesized immediately as timeout
// errors, keeping replays fast and exact.
package faultnet

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"
)

// Errors injected by the transport. They unwrap through the *net.OpError
// faultnet returns, so errors.Is works on what clients see.
var (
	// ErrReset is a synthesized mid-stream ECONNRESET.
	ErrReset = errors.New("faultnet: connection reset by peer")
	// ErrRefused is a synthesized dial-time connection refusal.
	ErrRefused = errors.New("faultnet: connection refused")
)

// timeoutErr satisfies net.Error with Timeout() == true, so clients
// classify a synthesized dial timeout exactly like a real one.
type timeoutErr struct{}

func (timeoutErr) Error() string   { return "faultnet: i/o timeout" }
func (timeoutErr) Timeout() bool   { return true }
func (timeoutErr) Temporary() bool { return true }

// ErrDialTimeout is the synthesized dial-timeout cause; it reports
// Timeout() == true through the net.Error interface.
var ErrDialTimeout net.Error = timeoutErr{}

// DirPlan is the fault plan of one stream direction (as seen from the
// wrapped endpoint: Read faults hit inbound bytes, Write faults hit
// outbound bytes).
type DirPlan struct {
	// LatencyRate is the per-operation probability of injected latency,
	// drawn uniformly from [LatencyMin, LatencyMax]. An operation is one
	// Write call, or one read segment: the bytes the first Read at a
	// segment boundary asks for, clipped by the faults drawn for it.
	// Later Reads finish the segment without drawing again.
	LatencyRate            float64
	LatencyMin, LatencyMax time.Duration
	// PartialRate is the per-operation probability of a short transfer:
	// reads return a prefix of what was asked for; writes are split into
	// two back-to-back segments (stressing peers against fragmentation).
	PartialRate float64
	// ResetRate is the per-operation probability of a synthesized
	// ECONNRESET. The fault is sticky: the connection is dead afterwards.
	ResetRate float64
	// MaxOpBytes caps the bytes moved per operation (a crude bandwidth
	// model); 0 means uncapped.
	MaxOpBytes int
}

// Plan is a complete fault plan for a Net.
type Plan struct {
	// Dial-time faults, applied in this order: refusal, timeout, latency.
	DialRefuseRate  float64
	DialTimeoutRate float64
	DialLatencyRate float64
	// Dial latency bounds (also used by DirPlan draws when its own
	// bounds are zero).
	LatencyMin, LatencyMax time.Duration
	// TruncateRate is the per-connection probability that the inbound
	// byte stream is cut (EOF, underlying conn closed) after a budget
	// drawn uniformly from [TruncateMin, TruncateMax] bytes.
	TruncateRate             float64
	TruncateMin, TruncateMax int64
	// DropRate is the per-datagram drop probability on packet conns,
	// applied independently to sends and receives.
	DropRate float64
	// Read and Write are the per-direction stream plans.
	Read, Write DirPlan
}

// Composite builds a Plan whose individual fault rates are all derived
// from one composite rate in [0, 1] — the knob the chaos soak escalates.
// Latency bounds are microseconds-scale so soaks stay fast.
func Composite(rate float64) Plan {
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	dir := DirPlan{
		LatencyRate: rate / 2,
		LatencyMin:  50 * time.Microsecond,
		LatencyMax:  500 * time.Microsecond,
		PartialRate: rate,
		ResetRate:   rate / 20,
	}
	return Plan{
		DialRefuseRate:  rate / 10,
		DialTimeoutRate: rate / 20,
		DialLatencyRate: rate / 2,
		LatencyMin:      50 * time.Microsecond,
		LatencyMax:      500 * time.Microsecond,
		TruncateRate:    rate / 20,
		TruncateMin:     64,
		TruncateMax:     2048,
		DropRate:        rate / 5,
		Read:            dir,
		Write:           dir,
	}
}

// DialFunc matches the dialer seams across the pipeline
// (smtpc.Client.Dialer, probe, whois, resolve).
type DialFunc func(ctx context.Context, network, addr string) (net.Conn, error)

// Net hands out fault-injecting transport wrappers driven by one seed.
type Net struct {
	plan  Plan
	seed  int64
	sleep func(time.Duration)

	mu       sync.Mutex
	nextConn int64
	events   []Event
}

// Option configures a Net.
type Option func(*Net)

// WithSleep substitutes the sleep used for injected latency. Passing a
// no-op makes latency purely a traced event — the chaos soak does this
// so wall time never influences outcomes.
func WithSleep(fn func(time.Duration)) Option {
	return func(n *Net) { n.sleep = fn }
}

// New creates a Net executing plan, seeded for exact replay.
func New(seed int64, plan Plan, opts ...Option) *Net {
	n := &Net{plan: plan, seed: seed, sleep: time.Sleep}
	for _, o := range opts {
		o(n)
	}
	return n
}

// Seed returns the seed the Net was built with — tests print it on
// failure so the exact fault sequence can be replayed.
func (n *Net) Seed() int64 { return n.seed }

// Conns returns how many connections (streams and packet conns) the Net
// has handed out.
func (n *Net) Conns() int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.nextConn
}

// newConn assigns the next connection ID and derives its private PRNG
// from (seed, id) with a splitmix64 finalizer, so the stream is
// independent of every other connection's.
func (n *Net) newConn() (int64, *rand.Rand) {
	n.mu.Lock()
	n.nextConn++
	id := n.nextConn
	n.mu.Unlock()
	z := uint64(n.seed) + uint64(id)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return id, rand.New(rand.NewSource(int64(z ^ (z >> 31))))
}

func chance(rng *rand.Rand, p float64) bool {
	return p > 0 && rng.Float64() < p
}

// span draws a duration uniformly from [lo, hi].
func span(rng *rand.Rand, lo, hi time.Duration) time.Duration {
	if hi <= lo {
		return lo
	}
	return lo + time.Duration(rng.Int63n(int64(hi-lo)+1))
}

// DialContext dials through the fault plan with net.Dialer underneath.
func (n *Net) DialContext(ctx context.Context, network, addr string) (net.Conn, error) {
	return n.faultDial(nil, ctx, network, addr)
}

// Dialer wraps base (nil means net.Dialer) in the fault plan; the result
// plugs directly into smtpc.Client.Dialer and friends.
func (n *Net) Dialer(base DialFunc) DialFunc {
	return func(ctx context.Context, network, addr string) (net.Conn, error) {
		return n.faultDial(base, ctx, network, addr)
	}
}

func (n *Net) faultDial(base DialFunc, ctx context.Context, network, addr string) (net.Conn, error) {
	id, rng := n.newConn()
	// Fixed draw order keeps the trace independent of scheduling.
	if chance(rng, n.plan.DialRefuseRate) {
		n.record(Event{Conn: id, Kind: KindDialRefused})
		return nil, &net.OpError{Op: "dial", Net: network, Err: ErrRefused}
	}
	if chance(rng, n.plan.DialTimeoutRate) {
		// Synthesized immediately: deterministic and fast, but classifies
		// as a timeout through the net.Error interface.
		n.record(Event{Conn: id, Kind: KindDialTimeout})
		return nil, &net.OpError{Op: "dial", Net: network, Err: ErrDialTimeout}
	}
	if chance(rng, n.plan.DialLatencyRate) {
		d := span(rng, n.plan.LatencyMin, n.plan.LatencyMax)
		n.record(Event{Conn: id, Kind: KindDialLatency, Arg: int64(d)})
		n.sleep(d)
	}
	dial := base
	if dial == nil {
		var d net.Dialer
		dial = d.DialContext
	}
	c, err := dial(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	return n.wrapConn(c, id, rng), nil
}

// Wrap wraps an existing stream connection in a fresh fault state —
// the seam for server-side injection on individually accepted conns.
func (n *Net) Wrap(c net.Conn) net.Conn {
	id, rng := n.newConn()
	return n.wrapConn(c, id, rng)
}

func (n *Net) wrapConn(c net.Conn, id int64, rng *rand.Rand) net.Conn {
	fc := &conn{Conn: c, net: n, id: id, rng: rng}
	if chance(rng, n.plan.TruncateRate) {
		lo, hi := n.plan.TruncateMin, n.plan.TruncateMax
		if lo <= 0 {
			lo = 1
		}
		fc.truncAt = lo
		if hi > lo {
			fc.truncAt = lo + rng.Int63n(hi-lo+1)
		}
	}
	return fc
}

// Listen binds a TCP listener whose accepted connections run the fault
// plan — the server-side seam (smtpd.Config.Listen, whois).
func (n *Net) Listen(network, addr string) (net.Listener, error) {
	ln, err := net.Listen(network, addr)
	if err != nil {
		return nil, err
	}
	return n.Listener(ln), nil
}

// Listener wraps ln so every accepted connection runs the fault plan.
func (n *Net) Listener(ln net.Listener) net.Listener {
	return &listener{Listener: ln, net: n}
}

type listener struct {
	net.Listener
	net *Net
}

func (l *listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	id, rng := l.net.newConn()
	return l.net.wrapConn(c, id, rng), nil
}

// ListenPacket binds a UDP socket whose datagrams run the drop plan —
// the dnsserve seam.
func (n *Net) ListenPacket(network, addr string) (net.PacketConn, error) {
	pc, err := net.ListenPacket(network, addr)
	if err != nil {
		return nil, err
	}
	return n.PacketConn(pc), nil
}

// PacketConn wraps pc in the datagram drop plan.
func (n *Net) PacketConn(pc net.PacketConn) net.PacketConn {
	id, rng := n.newConn()
	return &packetConn{PacketConn: pc, net: n, id: id, rng: rng}
}

func (n *Net) record(ev Event) {
	n.mu.Lock()
	n.events = append(n.events, ev)
	n.mu.Unlock()
}

// ---------------------------------------------------------------------
// Stream connection

// conn applies the per-direction stream plan. All fault decisions come
// from the connection's private PRNG under mu, so concurrent readers and
// writers of one conn still draw a deterministic sequence per direction
// interleaving; sleeps happen outside the lock. Writes draw once per
// Write call. Reads draw once per read segment (see planReadLocked),
// because the number of Read calls an inbound stream takes is the
// kernel's choice, not the caller's.
type conn struct {
	net.Conn
	net *Net
	id  int64

	mu      sync.Mutex
	rng     *rand.Rand
	seq     int64
	rb, wb  int64 // bytes moved so far, per direction
	rEnd    int64 // end offset of the current read segment
	truncAt int64 // inbound cut offset; 0 means never
	rdCap   bool  // bandwidth-cap event recorded (read)
	wrCap   bool  // bandwidth-cap event recorded (write)
	stuck   error // sticky fault: reset or truncation EOF
}

func (c *conn) recordLocked(kind Kind, dir Dir, off, arg int64) {
	c.seq++
	c.net.record(Event{Conn: c.id, Seq: c.seq, Kind: kind, Dir: dir, Off: off, Arg: arg})
}

func (c *conn) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return c.Conn.Read(p)
	}
	c.mu.Lock()
	if c.stuck != nil {
		err := c.stuck
		c.mu.Unlock()
		return 0, err
	}
	var lat time.Duration
	if c.rb >= c.rEnd {
		lat = c.planReadLocked(len(p))
		if err := c.stuck; err != nil {
			c.mu.Unlock()
			c.Conn.Close()
			return 0, err
		}
	}
	max := len(p)
	if rest := c.rEnd - c.rb; int64(max) > rest {
		max = int(rest)
	}
	c.mu.Unlock()
	if lat > 0 {
		c.net.sleep(lat)
	}
	nr, err := c.Conn.Read(p[:max])
	c.mu.Lock()
	c.rb += int64(nr)
	c.mu.Unlock()
	return nr, err
}

// planReadLocked opens the read segment starting at c.rb for a Read of
// n bytes. It draws the segment's reset, latency and partial-read
// faults, applies the bandwidth cap and the truncation budget, and sets
// rEnd; on a reset or truncation it sets stuck instead. Reads inside an
// open segment draw nothing, so how the kernel splits the inbound bytes
// across Read calls never reaches the PRNG: the trace depends only on
// the seed, the connection and the bytes.
func (c *conn) planReadLocked(n int) time.Duration {
	pl := c.net.plan.Read
	if chance(c.rng, pl.ResetRate) {
		c.stuck = &net.OpError{Op: "read", Net: "tcp", Err: ErrReset}
		c.recordLocked(KindReset, DirRead, c.rb, 0)
		return 0
	}
	if c.truncAt > 0 && c.rb >= c.truncAt {
		c.stuck = io.EOF
		c.recordLocked(KindTruncate, DirRead, c.rb, c.truncAt)
		return 0
	}
	var lat time.Duration
	if chance(c.rng, pl.LatencyRate) {
		lat = span(c.rng, pl.LatencyMin, pl.LatencyMax)
		c.recordLocked(KindLatency, DirRead, c.rb, int64(lat))
	}
	max := n
	if pl.MaxOpBytes > 0 && max > pl.MaxOpBytes {
		max = pl.MaxOpBytes
		if !c.rdCap {
			c.rdCap = true
			c.recordLocked(KindBandwidth, DirRead, c.rb, int64(pl.MaxOpBytes))
		}
	}
	if max > 1 && chance(c.rng, pl.PartialRate) {
		max = 1 + c.rng.Intn(max/2+1)
		c.recordLocked(KindPartialRead, DirRead, c.rb, int64(max))
	}
	if c.truncAt > 0 && c.rb+int64(max) > c.truncAt {
		max = int(c.truncAt - c.rb)
	}
	c.rEnd = c.rb + int64(max)
	return lat
}

func (c *conn) Write(p []byte) (int, error) {
	if len(p) == 0 {
		return c.Conn.Write(p)
	}
	c.mu.Lock()
	if c.stuck != nil {
		err := c.stuck
		c.mu.Unlock()
		return 0, err
	}
	pl := c.net.plan.Write
	if chance(c.rng, pl.ResetRate) {
		c.stuck = &net.OpError{Op: "write", Net: "tcp", Err: ErrReset}
		c.recordLocked(KindReset, DirWrite, c.wb, 0)
		err := c.stuck
		c.mu.Unlock()
		c.Conn.Close()
		return 0, err
	}
	var lat time.Duration
	if chance(c.rng, pl.LatencyRate) {
		lat = span(c.rng, pl.LatencyMin, pl.LatencyMax)
		c.recordLocked(KindLatency, DirWrite, c.wb, int64(lat))
	}
	// Fragmentation: split the payload at a drawn point and push the
	// halves as separate segments. The peer sees the same bytes, possibly
	// across more reads — the contract of Write is preserved.
	frag := 0
	if len(p) > 1 && chance(c.rng, pl.PartialRate) {
		frag = 1 + c.rng.Intn(len(p)-1)
		c.recordLocked(KindFragWrite, DirWrite, c.wb, int64(frag))
	}
	chunk := pl.MaxOpBytes
	if chunk > 0 && !c.wrCap && len(p) > chunk {
		c.wrCap = true
		c.recordLocked(KindBandwidth, DirWrite, c.wb, int64(chunk))
	}
	c.mu.Unlock()
	if lat > 0 {
		c.net.sleep(lat)
	}
	written := 0
	for _, part := range splitPayload(p, frag, chunk) {
		nw, err := c.Conn.Write(part)
		written += nw
		if err != nil {
			c.addWritten(int64(written))
			return written, err
		}
	}
	c.addWritten(int64(written))
	return written, nil
}

func (c *conn) addWritten(nw int64) {
	c.mu.Lock()
	c.wb += nw
	c.mu.Unlock()
}

// splitPayload cuts p at the fragmentation point (0 = none), then caps
// every piece at chunk bytes (0 = uncapped).
func splitPayload(p []byte, frag, chunk int) [][]byte {
	var halves [][]byte
	if frag > 0 && frag < len(p) {
		halves = [][]byte{p[:frag], p[frag:]}
	} else {
		halves = [][]byte{p}
	}
	if chunk <= 0 {
		return halves
	}
	var out [][]byte
	for _, h := range halves {
		for len(h) > chunk {
			out = append(out, h[:chunk])
			h = h[chunk:]
		}
		if len(h) > 0 {
			out = append(out, h)
		}
	}
	return out
}

// ---------------------------------------------------------------------
// Packet connection

// packetConn drops datagrams in both directions per the plan's DropRate.
type packetConn struct {
	net.PacketConn
	net *Net
	id  int64

	mu  sync.Mutex
	rng *rand.Rand
	seq int64
	rp  int64 // packets received (before dropping)
	wp  int64 // packets sent (before dropping)
}

func (pc *packetConn) recordLocked(kind Kind, dir Dir, off, arg int64) {
	pc.seq++
	pc.net.record(Event{Conn: pc.id, Seq: pc.seq, Kind: kind, Dir: dir, Off: off, Arg: arg})
}

func (pc *packetConn) ReadFrom(p []byte) (int, net.Addr, error) {
	for {
		n, addr, err := pc.PacketConn.ReadFrom(p)
		if err != nil {
			return n, addr, err
		}
		pc.mu.Lock()
		pc.rp++
		drop := chance(pc.rng, pc.net.plan.DropRate)
		if drop {
			pc.recordLocked(KindDropPacket, DirRead, pc.rp, int64(n))
		}
		pc.mu.Unlock()
		if !drop {
			return n, addr, nil
		}
	}
}

func (pc *packetConn) WriteTo(p []byte, addr net.Addr) (int, error) {
	pc.mu.Lock()
	pc.wp++
	drop := chance(pc.rng, pc.net.plan.DropRate)
	if drop {
		pc.recordLocked(KindDropPacket, DirWrite, pc.wp, int64(len(p)))
	}
	pc.mu.Unlock()
	if drop {
		// The datagram vanishes "on the wire": success to the sender.
		return len(p), nil
	}
	return pc.PacketConn.WriteTo(p, addr)
}
