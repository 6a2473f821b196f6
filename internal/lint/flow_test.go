package lint

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// TestFlowAnalyzers covers the CFG-based concurrency analyzers:
// goroutine exit ties, loop spawn bounds, and module-wide lock
// ordering. Each analyzer gets true-positive cases no statement-level
// analyzer could express, and must-not-flag cases for the accepted
// idioms the runtime packages use.
func TestFlowAnalyzers(t *testing.T) {
	cases := []struct {
		name     string
		analyzer string
		files    map[string]string
		want     []string
		count    int
	}{
		{
			name:     "goleak flags untied spinning goroutine",
			analyzer: "goleak",
			files: map[string]string{
				"internal/pipeline/p.go": `package pipeline

func Watch(stats *int) {
	go func() {
		for {
			*stats++
		}
	}()
}
`,
			},
			want:  []string{"internal/pipeline/p.go:4: [goleak]", "no exit tie"},
			count: 1,
		},
		{
			name:     "goleak looks one level into a named callee",
			analyzer: "goleak",
			files: map[string]string{
				"internal/pipeline/p.go": `package pipeline

func spin() {
	for {
	}
}

func Start() {
	go spin()
}
`,
			},
			want:  []string{"internal/pipeline/p.go:9: [goleak]"},
			count: 1,
		},
		{
			name:     "goleak accepts context, channel, and waited WaitGroup ties",
			analyzer: "goleak",
			files: map[string]string{
				"internal/pipeline/p.go": `package pipeline

import (
	"context"
	"sync"
)

func work() {}

func Serve(ctx context.Context, jobs <-chan int) {
	go func() {
		for {
			select {
			case <-ctx.Done():
				return
			case j := <-jobs:
				_ = j
			}
		}
	}()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		work()
	}()
	wg.Wait()
}
`,
			},
			count: 0,
		},
		{
			name:     "goleak accepts WaitGroup field waited on elsewhere in the package",
			analyzer: "goleak",
			files: map[string]string{
				"internal/pipeline/p.go": `package pipeline

import "sync"

type Pool struct {
	wg sync.WaitGroup
}

func (p *Pool) Kick() {
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
	}()
}

func (p *Pool) Close() {
	p.wg.Wait()
}
`,
			},
			count: 0,
		},
		{
			name:     "unboundedspawn flags spawn in range loop with no bound",
			analyzer: "unboundedspawn",
			files: map[string]string{
				"internal/pipeline/p.go": `package pipeline

func handle(s string) {}

func Fan(items []string) {
	for _, it := range items {
		go handle(it)
	}
}
`,
			},
			want:  []string{"internal/pipeline/p.go:7: [unboundedspawn]", "no concurrency bound"},
			count: 1,
		},
		{
			name:     "unboundedspawn flags a limiter that only covers one branch",
			analyzer: "unboundedspawn",
			files: map[string]string{
				"internal/pipeline/p.go": `package pipeline

func handle(s string) {}

func Fan(items []string, fast bool) {
	sem := make(chan struct{}, 4)
	for _, it := range items {
		if !fast {
			sem <- struct{}{}
		}
		go handle(it)
	}
	_ = sem
}
`,
			},
			want:  []string{"internal/pipeline/p.go:11: [unboundedspawn]"},
			count: 1,
		},
		{
			name:     "unboundedspawn accepts semaphore on every path and counter pools",
			analyzer: "unboundedspawn",
			files: map[string]string{
				"internal/pipeline/p.go": `package pipeline

import "context"

func handle(s string) {}

func Fan(items []string) {
	sem := make(chan struct{}, 4)
	for _, it := range items {
		sem <- struct{}{}
		it := it
		go func() {
			defer func() { <-sem }()
			handle(it)
		}()
	}
}

func Accept(ctx context.Context, conns <-chan string) {
	sem := make(chan struct{}, 4)
	for c := range conns {
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			return
		}
		c := c
		go func() {
			defer func() { <-sem }()
			handle(c)
		}()
	}
}

func Workers(n int, jobs chan string) {
	for i := 0; i < n; i++ {
		go func() {
			for j := range jobs {
				handle(j)
			}
		}()
	}
}
`,
			},
			count: 0,
		},
		{
			name:     "lockorder flags opposite acquisition orders",
			analyzer: "lockorder",
			files: map[string]string{
				"internal/pipeline/p.go": `package pipeline

import "sync"

var muA, muB sync.Mutex

func AB() {
	muA.Lock()
	muB.Lock()
	muB.Unlock()
	muA.Unlock()
}

func BA() {
	muB.Lock()
	muA.Lock()
	muA.Unlock()
	muB.Unlock()
}
`,
			},
			want: []string{
				"internal/pipeline/p.go:9: [lockorder]",
				"lock-order cycle: pipeline.muA -> pipeline.muB (p.go:9) -> pipeline.muA (p.go:16)",
			},
			count: 1,
		},
		{
			name:     "lockorder traces acquisition through an intermediate call",
			analyzer: "lockorder",
			files: map[string]string{
				"internal/pipeline/p.go": `package pipeline

import "sync"

var muA, muB sync.Mutex

func lockB() {
	muB.Lock()
	muB.Unlock()
}

func A() {
	muA.Lock()
	lockB()
	muA.Unlock()
}

func B() {
	muB.Lock()
	muA.Lock()
	muA.Unlock()
	muB.Unlock()
}
`,
			},
			want:  []string{"[lockorder]", "lock-order cycle: pipeline.muA -> pipeline.muB (p.go:14) -> pipeline.muA (p.go:20)"},
			count: 1,
		},
		{
			name:     "lockorder accepts a consistent global order",
			analyzer: "lockorder",
			files: map[string]string{
				"internal/pipeline/p.go": `package pipeline

import "sync"

var muA, muB sync.Mutex

func One() {
	muA.Lock()
	muB.Lock()
	muB.Unlock()
	muA.Unlock()
}

func Two() {
	muA.Lock()
	muB.Lock()
	muB.Unlock()
	muA.Unlock()
}
`,
			},
			count: 0,
		},
		{
			name:     "detmaprange flags direct emission inside a map range",
			analyzer: "detmaprange",
			files: map[string]string{
				"internal/pipeline/p.go": `package pipeline

import "fmt"

func Dump(m map[string]int) {
	for k, v := range m {
		fmt.Printf("%s=%d\n", k, v)
	}
}
`,
			},
			want:  []string{"internal/pipeline/p.go:7: [detmaprange]", "map iteration order reaches output (fmt.Printf)"},
			count: 1,
		},
		{
			name:     "detmaprange flags an accumulator returned without a sort",
			analyzer: "detmaprange",
			files: map[string]string{
				"internal/pipeline/p.go": `package pipeline

func Keys(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}
`,
			},
			want:  []string{"internal/pipeline/p.go:6: [detmaprange]", "reaches a return without an intervening sort"},
			count: 1,
		},
		{
			name:     "detmaprange accepts collect-sort-emit and len reads",
			analyzer: "detmaprange",
			files: map[string]string{
				"internal/pipeline/p.go": `package pipeline

import (
	"fmt"
	"sort"
)

func Emit(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Println(k, m[k])
	}
	fmt.Println(len(keys))
	return keys
}
`,
			},
			count: 0,
		},
		{
			name:     "seedflow flags the global PRNG and an ambient seed",
			analyzer: "seedflow",
			files: map[string]string{
				"internal/pipeline/p.go": `package pipeline

import "math/rand"

func Pick(n int) int {
	return rand.Intn(n)
}

func Gen(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}
`,
			},
			want: []string{
				"internal/pipeline/p.go:6: [seedflow]", "global math/rand.Intn",
				"internal/pipeline/p.go:10: [seedflow]", "does not derive from the splitmix64 seam",
			},
			count: 2,
		},
		{
			name:     "seedflow flags a time-derived seed through a local",
			analyzer: "seedflow",
			files: map[string]string{
				"internal/pipeline/p.go": `package pipeline

import (
	"math/rand"
	"time"
)

func Gen() *rand.Rand {
	seed := time.Now().UnixNano()
	return rand.New(rand.NewSource(seed))
}
`,
			},
			want:  []string{"internal/pipeline/p.go:10: [seedflow]", "time-seeded PRNG"},
			count: 1,
		},
		{
			name:     "seedflow accepts seam-derived seeds traced through locals",
			analyzer: "seedflow",
			files: map[string]string{
				"internal/par/par.go": `package par

import "math/rand"

func SubSeed(seed int64, index int) int64 {
	return seed + int64(index)
}

func Rand(seed int64, index int) *rand.Rand {
	return rand.New(rand.NewSource(SubSeed(seed, index)))
}
`,
				"internal/pipeline/p.go": `package pipeline

import (
	"math/rand"

	"repro/internal/par"
)

func Jitter(seed int64) float64 {
	return par.Rand(seed, 3).Float64()
}

func Gen(seed int64) *rand.Rand {
	s := par.SubSeed(seed, 1)
	return rand.New(rand.NewSource(s))
}
`,
			},
			count: 0,
		},
		{
			name:     "closeleak flags a conn abandoned on an error path",
			analyzer: "closeleak",
			files: map[string]string{
				"internal/pipeline/p.go": `package pipeline

import "net"

func Ping(addr string) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err != nil {
		return err
	}
	conn.Close()
	return nil
}
`,
			},
			want:  []string{"internal/pipeline/p.go:6: [closeleak]", "conn (from Dial) is not closed on every path"},
			count: 1,
		},
		{
			name:     "closeleak accepts a deferred close and ownership transfer",
			analyzer: "closeleak",
			files: map[string]string{
				"internal/pipeline/p.go": `package pipeline

import "net"

func Ping(addr string) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	buf := make([]byte, 1)
	_, err = conn.Read(buf)
	return err
}

func Connect(addr string) (net.Conn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return conn, nil
}
`,
			},
			count: 0,
		},
		{
			name:     "closeleak flags a segment file abandoned when the header write fails",
			analyzer: "closeleak",
			files: map[string]string{
				"internal/seg/s.go": `package seg

import "os"

type Log struct {
	active *os.File
}

func (l *Log) Rotate(path string) error {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o600)
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte("VLTSEG1\n")); err != nil {
		return err
	}
	l.active = f
	return nil
}
`,
			},
			want:  []string{"internal/seg/s.go:10: [closeleak]", "f (from OpenFile) is not closed on every path"},
			count: 1,
		},
		{
			name:     "closeleak accepts rotation that closes on the failed-header path",
			analyzer: "closeleak",
			files: map[string]string{
				"internal/seg/s.go": `package seg

import "os"

type Log struct {
	active *os.File
}

func (l *Log) Rotate(path string) error {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o600)
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte("VLTSEG1\n")); err != nil {
		f.Close()
		return err
	}
	l.active = f
	return nil
}
`,
			},
			count: 0,
		},
		{
			name:     "deadlineflow flags a read with no deadline on some path",
			analyzer: "deadlineflow",
			files: map[string]string{
				"internal/probe/p.go": `package probe

import (
	"net"
	"time"
)

func Banner(conn net.Conn, patient bool) ([]byte, error) {
	if patient {
		conn.SetReadDeadline(time.Now().Add(time.Second))
	}
	buf := make([]byte, 64)
	n, err := conn.Read(buf)
	return buf[:n], err
}
`,
			},
			want:  []string{"internal/probe/p.go:13: [deadlineflow]", "not dominated by a deadline"},
			count: 1,
		},
		{
			name:     "deadlineflow accepts a dominating deadline definition",
			analyzer: "deadlineflow",
			files: map[string]string{
				"internal/probe/p.go": `package probe

import (
	"net"
	"time"
)

func Banner(conn net.Conn) ([]byte, error) {
	conn.SetReadDeadline(time.Now().Add(time.Second))
	buf := make([]byte, 64)
	n, err := conn.Read(buf)
	return buf[:n], err
}
`,
			},
			count: 0,
		},
		{
			name:     "deadlineflow counts a helper that sets the deadline itself, not one two calls down",
			analyzer: "deadlineflow",
			files: map[string]string{
				"internal/probe/p.go": `package probe

import (
	"net"
	"time"
)

func arm(conn net.Conn) { conn.SetReadDeadline(time.Now().Add(time.Second)) }

func armVia(conn net.Conn) { arm(conn) }

func Banner(conn net.Conn) ([]byte, error) {
	arm(conn)
	buf := make([]byte, 64)
	n, err := conn.Read(buf)
	return buf[:n], err
}

func Greeting(conn net.Conn) ([]byte, error) {
	armVia(conn)
	buf := make([]byte, 64)
	n, err := conn.Read(buf)
	return buf[:n], err
}
`,
			},
			want:  []string{"internal/probe/p.go:22: [deadlineflow]", "blocking Read on a connection is not dominated by a deadline"},
			count: 1,
		},
		{
			name:     "deadlineflow waiver suppresses and is not stale",
			analyzer: "deadlineflow",
			files: map[string]string{
				"internal/probe/p.go": `package probe

import (
	"io"
	"net"
)

func Drain(conn net.Conn) {
	io.Copy(io.Discard, conn) //repolint:allow deadlineflow the drain deliberately waits for the peer to hang up
}
`,
			},
			count: 0,
		},
		{
			name:     "stale seedflow waiver is audited when seedflow runs",
			analyzer: "seedflow",
			files: map[string]string{
				"internal/pipeline/p.go": `package pipeline

//repolint:allow seedflow left over from a removed generator
func Pick(n int) int { return n }
`,
			},
			want:  []string{"internal/pipeline/p.go:3: [directive]", "stale waiver: //repolint:allow seedflow no longer suppresses any finding"},
			count: 1,
		},
		{
			name:     "stale waiver becomes a finding when its analyzer runs clean",
			analyzer: "errdrop",
			files: map[string]string{
				"internal/resolve/r.go": `package resolve

import "os"

func Cleanup(path string) error {
	//repolint:allow errdrop belt and braces from an earlier revision
	return os.Remove(path)
}
`,
			},
			want:  []string{"internal/resolve/r.go:6: [directive]", "stale waiver: //repolint:allow errdrop no longer suppresses any finding"},
			count: 1,
		},
		{
			name:     "stale waiver is not audited when its analyzer is skipped",
			analyzer: "mutexcopy",
			files: map[string]string{
				"internal/resolve/r.go": `package resolve

import "os"

func Cleanup(path string) error {
	//repolint:allow errdrop belt and braces from an earlier revision
	return os.Remove(path)
}
`,
			},
			count: 0,
		},
	}

	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			dir := writeTree(t, tc.files)
			got := runFixture(t, dir, tc.analyzer)
			if len(got) != tc.count {
				t.Fatalf("got %d findings, want %d:\n%s", len(got), tc.count, strings.Join(got, "\n"))
			}
			for _, want := range tc.want {
				found := false
				for _, g := range got {
					if strings.Contains(g, want) {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("no finding contains %q; got:\n%s", want, strings.Join(got, "\n"))
				}
			}
		})
	}
}

// TestValuePropAnalyzers covers the three analyzers built on the
// value-propagation layer: keyleak's source→sink provenance tracking
// (direct, interprocedural, field-sensitive, and through the crypto
// seam), ctxprop's blocking-API contract, and allochot's
// benchmark-reachability gating of the per-iteration allocation rules.
func TestValuePropAnalyzers(t *testing.T) {
	cases := []struct {
		name     string
		analyzer string
		files    map[string]string
		want     []string
		count    int
	}{
		{
			name:     "keyleak flags vault key reaching the process log",
			analyzer: "keyleak",
			files: map[string]string{
				"internal/vault/vault.go": `package vault

type Key []byte
`,
				"internal/collector/c.go": `package collector

import (
	"log"

	"repro/internal/vault"
)

func Dump(k vault.Key) {
	log.Printf("loaded key %x", k)
}
`,
			},
			want:  []string{"internal/collector/c.go:10: [keyleak]", "vault key material", "log.Printf"},
			count: 1,
		},
		{
			name:     "keyleak follows a leak through a helper's summary",
			analyzer: "keyleak",
			files: map[string]string{
				"internal/vault/vault.go": `package vault

type Key []byte
`,
				"internal/collector/c.go": `package collector

import (
	"log"

	"repro/internal/vault"
)

func emit(s string) {
	log.Println(s)
}

func Leak(k vault.Key) {
	emit(string(k))
}
`,
			},
			want:  []string{"internal/collector/c.go:14: [keyleak]", "flows into emit"},
			count: 1,
		},
		{
			name:     "keyleak flags raw message body but not study-domain metadata",
			analyzer: "keyleak",
			files: map[string]string{
				"internal/mailmsg/m.go": `package mailmsg

type Message struct {
	Body        string
	StudyDomain string
}
`,
				"internal/collector/c.go": `package collector

import (
	"log"

	"repro/internal/mailmsg"
)

func Audit(m *mailmsg.Message) {
	log.Printf("domain %s", m.StudyDomain)
	log.Printf("body %s", m.Body)
}
`,
			},
			want:  []string{"internal/collector/c.go:11: [keyleak]", "pre-sanitize message content"},
			count: 1,
		},
		{
			name:     "keyleak accepts a hashed key: the crypto seam reads clean",
			analyzer: "keyleak",
			files: map[string]string{
				"internal/vault/vault.go": `package vault

type Key []byte
`,
				"internal/collector/c.go": `package collector

import (
	"crypto/sha256"
	"log"

	"repro/internal/vault"
)

func Fingerprint(k vault.Key) {
	sum := sha256.Sum256(k)
	log.Printf("key digest %x", sum[:4])
}
`,
			},
			count: 0,
		},
		{
			name:     "keyleak flags the vault key formatted into a segment-open error",
			analyzer: "keyleak",
			files: map[string]string{
				"internal/vault/vault.go": `package vault

type Key []byte
`,
				"internal/seg/s.go": `package seg

import (
	"fmt"
	"os"

	"repro/internal/vault"
)

func OpenSegment(path string, k vault.Key) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o600)
	if err != nil {
		return nil, fmt.Errorf("segment %s key %x: %w", path, k, err)
	}
	return f, nil
}
`,
			},
			want:  []string{"internal/seg/s.go:13: [keyleak]", "vault key material", "fmt.Errorf"},
			count: 1,
		},
		{
			name:     "keyleak flags raw key bytes written to a segment file, not the digest",
			analyzer: "keyleak",
			files: map[string]string{
				"internal/vault/vault.go": `package vault

type Key []byte
`,
				"internal/seg/s.go": `package seg

import (
	"crypto/sha256"
	"os"

	"repro/internal/vault"
)

func WriteHeader(f *os.File, k vault.Key) error {
	sum := sha256.Sum256(k)
	if _, err := f.Write(sum[:]); err != nil {
		return err
	}
	_, err := f.Write(k)
	return err
}
`,
			},
			want:  []string{"internal/seg/s.go:15: [keyleak]", "vault key material"},
			count: 1,
		},
		{
			name:     "ctxprop flags an exported dialer with no context parameter",
			analyzer: "ctxprop",
			files: map[string]string{
				"internal/probe/p.go": `package probe

import "net"

func Knock(addr string) error {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	return c.Close()
}
`,
			},
			want:  []string{"internal/probe/p.go:5: [ctxprop]", "no context.Context parameter"},
			count: 1,
		},
		{
			name:     "ctxprop accepts a context threaded down to the dial",
			analyzer: "ctxprop",
			files: map[string]string{
				"internal/probe/p.go": `package probe

import (
	"context"
	"net"
)

func Knock(ctx context.Context, addr string) error {
	var d net.Dialer
	c, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return err
	}
	return c.Close()
}
`,
			},
			count: 0,
		},
		{
			name:     "allochot flags Sprintf and bare append in a benchmarked loop",
			analyzer: "allochot",
			files: map[string]string{
				"internal/match/m.go": `package match

import "fmt"

func Render(ids []int) []string {
	var out []string
	for _, id := range ids {
		out = append(out, fmt.Sprintf("d%d", id))
	}
	return out
}
`,
				"internal/match/m_test.go": `package match

import "testing"

func BenchmarkRender(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Render([]int{1, 2, 3})
	}
}
`,
			},
			want: []string{
				"internal/match/m.go:8: [allochot]", "fmt.Sprintf inside a loop",
				"no preallocated capacity",
			},
			count: 2,
		},
		{
			name:     "allochot flags a loop-invariant concat but not a varying one",
			analyzer: "allochot",
			files: map[string]string{
				"internal/match/m.go": `package match

func Label(host string, ids []string) []string {
	out := make([]string, 0, len(ids))
	for _, id := range ids {
		prefix := host + ": "
		out = append(out, prefix+id)
	}
	return out
}
`,
				"internal/match/m_test.go": `package match

import "testing"

func BenchmarkLabel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Label("mx", []string{"a", "b"})
	}
}
`,
			},
			want:  []string{"internal/match/m.go:6: [allochot]", "loop-invariant string concatenation"},
			count: 1,
		},
		{
			name:     "allochot ignores the same patterns outside benchmark reach",
			analyzer: "allochot",
			files: map[string]string{
				"internal/match/m.go": `package match

import "fmt"

func Render(ids []int) []string {
	var out []string
	for _, id := range ids {
		out = append(out, fmt.Sprintf("d%d", id))
	}
	return out
}
`,
			},
			count: 0,
		},
	}

	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			dir := writeTree(t, tc.files)
			got := runFixture(t, dir, tc.analyzer)
			if len(got) != tc.count {
				t.Fatalf("got %d findings, want %d:\n%s", len(got), tc.count, strings.Join(got, "\n"))
			}
			for _, want := range tc.want {
				found := false
				for _, g := range got {
					if strings.Contains(g, want) {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("no finding contains %q; got:\n%s", want, strings.Join(got, "\n"))
				}
			}
		})
	}
}

// TestWriteJSONGolden pins the exact -format=json stream for a fixture,
// and verifies the parallel driver produces it identically across runs.
func TestWriteJSONGolden(t *testing.T) {
	dir := writeTree(t, map[string]string{
		"internal/resolve/resolve.go": `package resolve

import "os"

func Cleanup(path string) {
	os.Remove(path)
}
`,
		"internal/stats/stats.go": `package stats

import "time"

func Now() time.Time {
	return time.Now()
}
`,
	})
	want := strings.Join([]string{
		`{"file":"internal/resolve/resolve.go","line":6,"column":2,"analyzer":"errdrop","symbol":"Cleanup","message":"os.Remove error return value is dropped; handle it or waive with //repolint:allow errdrop \u003creason\u003e"}`,
		`{"file":"internal/stats/stats.go","line":6,"column":9,"analyzer":"timenondeterminism","symbol":"Now","message":"direct time.Now in simulation package repro/internal/stats; take time from internal/simclock or an injected clock"}`,
		``,
	}, "\n")
	prog, targets, err := LoadProgram(dir, []string{"./..."})
	if err != nil {
		t.Fatalf("LoadProgram: %v", err)
	}
	rel := func(name string) string {
		r, err := filepath.Rel(dir, name)
		if err != nil {
			return name
		}
		return r
	}
	for i := 0; i < 3; i++ {
		var buf bytes.Buffer
		if err := WriteJSON(&buf, Run(prog, targets, Analyzers()), rel); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		if got := buf.String(); got != want {
			t.Errorf("run %d: json output mismatch\n--- got ---\n%s\n--- want ---\n%s", i, got, want)
		}
	}
}
