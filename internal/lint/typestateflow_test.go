package lint

import (
	"strings"
	"testing"
)

// Fixture stubs giving the typestate fixtures the module-relative
// paths and type names the protocol tables key on. Behavior is
// irrelevant — only paths, names and signatures matter.
var vaultTypestateStub = map[string]string{
	"internal/vault/vault.go": `package vault

type Vault struct{ n int }

func DeriveKey(pass string) []byte { return []byte(pass) }

func Open(key []byte) (*Vault, error) { return &Vault{}, nil }

func (v *Vault) Put(domain, verdict string, data []byte) error { return nil }
func (v *Vault) Get(domain string) ([]byte, error)            { return nil, nil }
func (v *Vault) Compact() error                               { return nil }
func (v *Vault) Len() int                                     { return v.n }
func (v *Vault) Close() error                                 { return nil }
`,
}

// pendFIFOStub is core's spill FIFO, the survivor log among them: add,
// seal and drain are uses, close is idempotent.
const pendFIFOStub = `package core

type pendFIFO struct{ n int }

func newSpillFIFO(dir string) (*pendFIFO, error) { return &pendFIFO{}, nil }

func (l *pendFIFO) add(x int)                      { l.n += x }
func (l *pendFIFO) seal() error                    { return nil }
func (l *pendFIFO) drain(fn func(int) error) error { return fn(l.n) }
func (l *pendFIFO) close()                         { l.n = 0 }
`

var parTypestateStub = map[string]string{
	"internal/par/par.go": `package par

import "math/rand"

func SubSeed(seed int64, index int) int64 { return seed ^ int64(index) }

func Rand(seed int64, index int) *rand.Rand {
	return rand.New(rand.NewSource(SubSeed(seed, index)))
}

func Map(seed int64, items []int, fn func(int) int) []int { return items }

func MapAt(seed int64, base int, items []int, fn func(int) int) []int { return items }
`,
}

// A client-side textConn whose event methods all set deadlines, so the
// ordering cases stay free of deadline-facet findings.
var smtpcTypestateStub = map[string]string{
	"internal/smtpc/smtpc.go": `package smtpc

import (
	"fmt"
	"net"
	"time"
)

type textConn struct {
	conn net.Conn
}

func (t *textConn) cmd(line string) (int, error) {
	t.conn.SetWriteDeadline(time.Now().Add(time.Second))
	fmt.Fprintf(t.conn, "%s\r\n", line)
	return 250, nil
}

func (t *textConn) readReply() (int, error) {
	t.conn.SetReadDeadline(time.Now().Add(time.Second))
	buf := make([]byte, 1)
	t.conn.Read(buf)
	return 220, nil
}

func (t *textConn) writeData(data []byte) error {
	t.conn.SetWriteDeadline(time.Now().Add(time.Second))
	_, err := t.conn.Write(data)
	return err
}
`,
}

var smtpdTypestateStub = map[string]string{
	"internal/smtpd/smtpd.go": `package smtpd

import (
	"net"
	"time"
)

type sessionConn struct {
	conn net.Conn
}

func (c *sessionConn) readLine() (string, error) {
	c.conn.SetReadDeadline(time.Now().Add(time.Second))
	buf := make([]byte, 64)
	n, err := c.conn.Read(buf)
	return string(buf[:n]), err
}

func (c *sessionConn) reply(code int, msg string) {
	c.conn.SetWriteDeadline(time.Now().Add(time.Second))
	c.conn.Write([]byte(msg))
}
`,
}

// TestTypestateAnalyzers covers the three L5 protocol analyzers with
// true positives no statement-level rule could see (path-sensitive
// use-after-close, interprocedural close via a callee, SMTP command
// ordering, stream-slot reuse through a re-bound seed) and
// must-not-flag cases for every accepted idiom the real packages use
// (defer Close, close-then-reopen, eager close on the error arm,
// escape via closure, the smtpd tarpit path, named-constant stream
// indexes, variable chunk bases).
func TestTypestateAnalyzers(t *testing.T) {
	cases := []struct {
		name     string
		analyzer string
		files    map[string]string
		want     []string
		count    int
	}{
		{
			name:     "vaultstate flags use reachable after a branch close",
			analyzer: "vaultstate",
			files: merge(vaultTypestateStub, map[string]string{
				"internal/core/core.go": `package core

import "repro/internal/vault"

func Archive(key []byte, flush bool) ([]byte, error) {
	v, err := vault.Open(key)
	if err != nil {
		return nil, err
	}
	if flush {
		v.Close()
	}
	return v.Get("d")
}
`,
			}),
			want:  []string{"internal/core/core.go:13: [vaultstate]", "use on vault.Vault v in state closed", "vault protocol"},
			count: 1,
		},
		{
			name:     "vaultstate flags rotation from the closed state",
			analyzer: "vaultstate",
			files: merge(vaultTypestateStub, map[string]string{
				"internal/core/core.go": `package core

import "repro/internal/vault"

func Seal(key []byte) error {
	v, err := vault.Open(key)
	if err != nil {
		return err
	}
	v.Close()
	return v.Compact()
}
`,
			}),
			want:  []string{"internal/core/core.go:11: [vaultstate]", "rotate on vault.Vault v in state closed", "rotation/compaction must start from the open state"},
			count: 1,
		},
		{
			name:     "vaultstate flags a callee that closes before the caller's use",
			analyzer: "vaultstate",
			files: merge(vaultTypestateStub, map[string]string{
				"internal/core/core.go": `package core

import "repro/internal/vault"

func shutdown(v *vault.Vault) {
	v.Close()
}

func Collect(key []byte) error {
	v, err := vault.Open(key)
	if err != nil {
		return err
	}
	shutdown(v)
	return v.Put("d", "t", nil)
}
`,
			}),
			want:  []string{"internal/core/core.go:15: [vaultstate]", "use on vault.Vault v in state closed"},
			count: 1,
		},
		{
			name:     "vaultstate accepts defer Close with uses before exit",
			analyzer: "vaultstate",
			files: merge(vaultTypestateStub, map[string]string{
				"internal/core/core.go": `package core

import "repro/internal/vault"

func Store(key []byte) error {
	v, err := vault.Open(key)
	if err != nil {
		return err
	}
	defer v.Close()
	if err := v.Put("d", "t", nil); err != nil {
		return err
	}
	_, err = v.Get("d")
	return err
}
`,
			}),
			count: 0,
		},
		{
			name:     "vaultstate accepts close-then-reopen and the eager error-arm close",
			analyzer: "vaultstate",
			files: merge(vaultTypestateStub, map[string]string{
				"internal/core/core.go": `package core

import "repro/internal/vault"

func Rotate(key []byte, snapshot bool) error {
	v, err := vault.Open(key)
	if err != nil {
		return err
	}
	if snapshot {
		v.Close()
		v, err = vault.Open(key)
		if err != nil {
			return err
		}
	}
	if err := v.Put("d", "t", nil); err != nil {
		v.Close()
		return err
	}
	return v.Close()
}
`,
			}),
			count: 0,
		},
		{
			name:     "vaultstate stops tracking at a closure capture",
			analyzer: "vaultstate",
			files: merge(vaultTypestateStub, map[string]string{
				"internal/core/core.go": `package core

import "repro/internal/vault"

func Deferred(key []byte) error {
	v, err := vault.Open(key)
	if err != nil {
		return err
	}
	put := func() error { return v.Put("d", "t", nil) }
	v.Close()
	return put()
}
`,
			}),
			count: 0,
		},
		{
			name:     "vaultstate flags a survivor-log seal after close",
			analyzer: "vaultstate",
			files: map[string]string{
				"internal/core/core.go": pendFIFOStub + `
func Replay(dir string) error {
	l, err := newSpillFIFO(dir)
	if err != nil {
		return err
	}
	l.add(1)
	l.close()
	return l.seal()
}
`,
			},
			want:  []string{"internal/core/core.go:19: [vaultstate]", "use on core.pendFIFO l in state closed"},
			count: 1,
		},
		{
			name:     "vaultstate accepts a drained survivor log closed again by defer",
			analyzer: "vaultstate",
			files: map[string]string{
				"internal/core/core.go": pendFIFOStub + `
func Replay(dir string) error {
	l, err := newSpillFIFO(dir)
	if err != nil {
		return err
	}
	defer l.close()
	l.add(1)
	if err := l.seal(); err != nil {
		return err
	}
	if err := l.drain(func(int) error { return nil }); err != nil {
		return err
	}
	l.close()
	return nil
}
`,
			},
			count: 0,
		},
		{
			name:     "sessionproto flags a server read before the banner reply",
			analyzer: "sessionproto",
			files: merge(smtpdTypestateStub, map[string]string{
				"internal/smtpd/serve.go": `package smtpd

import "net"

func serve(conn net.Conn) {
	c := &sessionConn{conn: conn}
	line, _ := c.readLine()
	_ = line
	c.reply(220, "late banner")
}
`,
			}),
			want:  []string{"internal/smtpd/serve.go:7: [sessionproto]", "read on smtpd.sessionConn c in state fresh", "banner/reply before reading"},
			count: 1,
		},
		{
			name:     "sessionproto accepts reply-first sessions and the raw-conn tarpit",
			analyzer: "sessionproto",
			files: merge(smtpdTypestateStub, map[string]string{
				"internal/smtpd/serve.go": `package smtpd

import (
	"io"
	"net"
)

func serve(conn net.Conn, tarpit bool) {
	if tarpit {
		n, err := io.Copy(io.Discard, conn)
		_, _ = n, err
		return
	}
	c := &sessionConn{conn: conn}
	c.reply(220, "banner")
	for i := 0; i < 3; i++ {
		line, err := c.readLine()
		if err != nil {
			return
		}
		_ = line
		c.reply(250, "ok")
	}
	c.reply(221, "bye")
}
`,
			}),
			count: 0,
		},
		{
			name:     "sessionproto flags MAIL before the hello exchange",
			analyzer: "sessionproto",
			files: merge(smtpcTypestateStub, map[string]string{
				"internal/smtpc/send.go": `package smtpc

import "net"

func send(conn net.Conn, from string) error {
	t := &textConn{conn: conn}
	if _, err := t.readReply(); err != nil {
		return err
	}
	if _, err := t.cmd("MAIL FROM:<" + from + ">"); err != nil {
		return err
	}
	_, err := t.cmd("QUIT")
	return err
}
`,
			}),
			want:  []string{"internal/smtpc/send.go:10: [sessionproto]", "mail on smtpc.textConn t in state greeted", "MAIL FROM before the HELO/EHLO exchange"},
			count: 1,
		},
		{
			name:     "sessionproto accepts the full client sequence with fallback and RCPT loop",
			analyzer: "sessionproto",
			files: merge(smtpcTypestateStub, map[string]string{
				"internal/smtpc/send.go": `package smtpc

import "net"

func send(conn net.Conn, from string, rcpts []string, data []byte) error {
	t := &textConn{conn: conn}
	if _, err := t.readReply(); err != nil {
		return err
	}
	code, err := t.cmd("EHLO probe")
	if err != nil {
		return err
	}
	if code != 250 {
		if _, err := t.cmd("HELO probe"); err != nil {
			return err
		}
	}
	if _, err := t.cmd("MAIL FROM:<" + from + ">"); err != nil {
		return err
	}
	for _, r := range rcpts {
		if _, err := t.cmd("RCPT TO:<" + r + ">"); err != nil {
			return err
		}
	}
	if _, err := t.cmd("DATA"); err != nil {
		return err
	}
	if err := t.writeData(data); err != nil {
		return err
	}
	if _, err := t.readReply(); err != nil {
		return err
	}
	_, err = t.cmd("QUIT")
	return err
}
`,
			}),
			count: 0,
		},
		{
			name:     "sessionproto deadline facet flags an event with no deadline anywhere",
			analyzer: "sessionproto",
			files: map[string]string{
				"internal/smtpc/smtpc.go": `package smtpc

import "net"

type textConn struct {
	conn net.Conn
}

func (t *textConn) readReply() (int, error) {
	buf := make([]byte, 1)
	_, err := t.conn.Read(buf)
	return 220, err
}

func banner(conn net.Conn) error {
	t := &textConn{conn: conn}
	_, err := t.readReply()
	return err
}
`,
			},
			want:  []string{"[sessionproto]", `session event "read" is not covered by a phase deadline`},
			count: 1,
		},
		{
			name:     "sessionproto deadline facet accepts a caller-side dominating deadline",
			analyzer: "sessionproto",
			files: map[string]string{
				"internal/smtpc/smtpc.go": `package smtpc

import (
	"net"
	"time"
)

type textConn struct {
	conn net.Conn
}

func (t *textConn) readReply() (int, error) {
	buf := make([]byte, 1)
	_, err := t.conn.Read(buf)
	return 220, err
}

func banner(conn net.Conn) error {
	conn.SetDeadline(time.Now().Add(time.Second))
	t := &textConn{conn: conn}
	_, err := t.readReply()
	return err
}
`,
			},
			count: 0,
		},
		{
			name:     "sessionproto deadline facet finds a setter three calls down, not four",
			analyzer: "sessionproto",
			files: map[string]string{
				"internal/smtpc/smtpc.go": `package smtpc

import (
	"net"
	"time"
)

type textConn struct {
	conn net.Conn
}

func (t *textConn) arm()     { t.conn.SetReadDeadline(time.Now().Add(time.Second)) }
func (t *textConn) prepare() { t.arm() }
func (t *textConn) fill()    { t.prepare() }

func (t *textConn) readReply() (int, error) {
	t.prepare()
	buf := make([]byte, 1)
	_, err := t.conn.Read(buf)
	return 220, err
}

func (t *textConn) readMultiReply() ([]string, error) {
	t.fill()
	buf := make([]byte, 1)
	_, err := t.conn.Read(buf)
	return nil, err
}

func banner(conn net.Conn) error {
	t := &textConn{conn: conn}
	_, err := t.readReply()
	return err
}

func multiBanner(conn net.Conn) error {
	t := &textConn{conn: conn}
	_, err := t.readMultiReply()
	return err
}
`,
			},
			want:  []string{"internal/smtpc/smtpc.go:38: [sessionproto]", `session event "read" is not covered by a phase deadline: smtpc.textConn.readMultiReply`},
			count: 1,
		},
		{
			name:     "streamidx flags two literal claims of one stream index",
			analyzer: "streamidx",
			files: merge(parTypestateStub, map[string]string{
				"internal/gen/gen.go": `package gen

import "repro/internal/par"

func Pair(seed int64) (int64, int64) {
	a := par.SubSeed(seed, 3)
	b := par.Rand(seed, 3).Int63()
	return a, b
}
`,
			}),
			want:  []string{"internal/gen/gen.go:7: [streamidx]", "claim on seed seed in state claimed", "derivations collide"},
			count: 1,
		},
		{
			name:     "streamidx sees through a re-bound seed to the same domain",
			analyzer: "streamidx",
			files: merge(parTypestateStub, map[string]string{
				"internal/gen/gen.go": `package gen

import "repro/internal/par"

func Pair(seed int64) (int64, int64) {
	s := seed
	a := par.SubSeed(s, 1)
	b := par.SubSeed(seed, 1)
	return a, b
}
`,
			}),
			want:  []string{"internal/gen/gen.go:8: [streamidx]"},
			count: 1,
		},
		{
			name:     "streamidx flags Map and MapAt sharing window base zero",
			analyzer: "streamidx",
			files: merge(parTypestateStub, map[string]string{
				"internal/gen/gen.go": `package gen

import "repro/internal/par"

func Both(seed int64, items []int) ([]int, []int) {
	fn := func(i int) int { return i }
	a := par.Map(seed, items, fn)
	b := par.MapAt(seed, 0, items, fn)
	return a, b
}
`,
			}),
			want:  []string{"internal/gen/gen.go:8: [streamidx]", "claim on seed seed in state claimed", "derivations collide"},
			count: 1,
		},
		{
			name:     "streamidx accepts named-constant reuse, distinct indexes, and variable bases",
			analyzer: "streamidx",
			files: merge(parTypestateStub, map[string]string{
				"internal/gen/gen.go": `package gen

import "repro/internal/par"

const (
	streamUnits   = 0
	streamTargets = 9
)

func Derive(seed int64, chunks [][]int) []int64 {
	a := par.SubSeed(seed, streamUnits)
	b := par.SubSeed(seed, streamTargets)
	c := par.SubSeed(seed, streamUnits) // same named constant: one logical stream
	out := []int64{a, b, c}
	fn := func(i int) int { return i }
	base := 0
	for _, chunk := range chunks {
		par.MapAt(seed, base, chunk, fn)
		base += len(chunk)
	}
	return out
}
`,
			}),
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

// runFixtureFindings is runFixture returning the raw findings, for
// assertions on the Detail blame chains.
func runFixtureFindings(t *testing.T, dir string, names ...string) []Finding {
	t.Helper()
	prog, targets, err := LoadProgram(dir, []string{"./..."})
	if err != nil {
		t.Fatalf("LoadProgram: %v", err)
	}
	var as []*Analyzer
	for _, n := range names {
		a, ok := AnalyzerByName(n)
		if !ok {
			t.Fatalf("unknown analyzer %q", n)
		}
		as = append(as, a)
	}
	return Run(prog, targets, as)
}

// The rotation fixture TestVaultstateMutation seeds its bug into: the
// snapshot arm seals the store and reopens it before the tail writes.
const vaultRotationSrc = `package core

import "repro/internal/vault"

func Cycle(key []byte, snapshot bool) error {
	v, err := vault.Open(key)
	if err != nil {
		return err
	}
	if snapshot {
		v.Close()
		v, err = vault.Open(key)
		if err != nil {
			return err
		}
	}
	if err := v.Put("d", "t", nil); err != nil {
		return err
	}
	return v.Close()
}
`

// TestVaultstateMutation proves the analyzer has teeth: the correct
// rotation pattern is clean, and the minimal edit that seeds a
// use-after-Close — deleting the reopen after the snapshot arm's
// Close, so the later Put lands on the sealed store — yields exactly
// one vaultstate finding whose -why chain walks acquisition → close →
// use with module-relative positions.
func TestVaultstateMutation(t *testing.T) {
	correct := merge(vaultTypestateStub, map[string]string{
		"internal/core/core.go": vaultRotationSrc,
	})
	if got := runFixture(t, writeTree(t, correct), "vaultstate"); len(got) != 0 {
		t.Fatalf("correct rotation fixture not clean:\n%s", strings.Join(got, "\n"))
	}

	mutated := strings.Replace(vaultRotationSrc,
		`		v, err = vault.Open(key)
		if err != nil {
			return err
		}
`, "", 1)
	if mutated == vaultRotationSrc {
		t.Fatal("mutation did not apply")
	}
	mutant := merge(vaultTypestateStub, map[string]string{
		"internal/core/core.go": mutated,
	})
	findings := runFixtureFindings(t, writeTree(t, mutant), "vaultstate")
	if len(findings) != 1 {
		t.Fatalf("mutant: got %d findings, want exactly 1: %v", len(findings), findings)
	}
	f := findings[0]
	if f.Analyzer != "vaultstate" || !strings.Contains(f.Message, "use on vault.Vault v in state closed") {
		t.Errorf("unexpected finding: %s", f.String())
	}
	for _, hop := range []string{"acquired v (internal/core/core.go:6)", "close (internal/core/core.go:11)", "use (internal/core/core.go:13)"} {
		if !strings.Contains(f.Detail, hop) {
			t.Errorf("blame chain missing hop %q: %q", hop, f.Detail)
		}
	}
}

// The chunked-generation fixture TestStreamIdxMutation seeds its bug
// into: two MapAt windows over the same seed at disjoint bases.
const streamChunkSrc = `package gen

import "repro/internal/par"

func Build(seed int64, a, b []int) ([]int, []int) {
	fn := func(i int) int { return i }
	outA := par.MapAt(seed, 0, a, fn)
	outB := par.MapAt(seed, 16, b, fn)
	return outA, outB
}
`

// TestStreamIdxMutation: the disjoint windows are clean; swapping the
// second chunk's base onto the first's (16 → 0) collides the windows
// and yields exactly one streamidx finding whose chain names both
// claim sites.
func TestStreamIdxMutation(t *testing.T) {
	correct := merge(parTypestateStub, map[string]string{
		"internal/gen/gen.go": streamChunkSrc,
	})
	if got := runFixture(t, writeTree(t, correct), "streamidx"); len(got) != 0 {
		t.Fatalf("disjoint-window fixture not clean:\n%s", strings.Join(got, "\n"))
	}

	mutated := strings.Replace(streamChunkSrc, "par.MapAt(seed, 16, b, fn)", "par.MapAt(seed, 0, b, fn)", 1)
	mutant := merge(parTypestateStub, map[string]string{
		"internal/gen/gen.go": mutated,
	})
	findings := runFixtureFindings(t, writeTree(t, mutant), "streamidx")
	if len(findings) != 1 {
		t.Fatalf("mutant: got %d findings, want exactly 1: %v", len(findings), findings)
	}
	f := findings[0]
	if !strings.Contains(f.Message, "claim on seed seed in state claimed") {
		t.Errorf("unexpected message: %s", f.Message)
	}
	for _, hop := range []string{"par.MapAt claims index 0 (internal/gen/gen.go:7)", "par.MapAt claims index 0 (internal/gen/gen.go:8)"} {
		if !strings.Contains(f.Detail, hop) {
			t.Errorf("blame chain missing hop %q: %q", hop, f.Detail)
		}
	}
}

// typestateEditFiles seeds one use-after-Close into a caller of the
// vault stub, for the protocol-table edit test.
var typestateEditFiles = merge(vaultTypestateStub, map[string]string{
	"internal/core/core.go": `package core

import "repro/internal/vault"

func Bad(key []byte) error {
	v, err := vault.Open(key)
	if err != nil {
		return err
	}
	v.Close()
	return v.Put("d", "t", nil)
}
`,
})

// TestProtocolTableEditChangesFindings pins that the caller's findings
// follow the protocol table, which is data: the seeded use-after-Close
// is reported with the table's Fail text and a blame chain, editing
// the Fail text changes the message, and adding the missing transition
// clears the finding. Every run loads a fresh Program, and the compiled
// machine is cached per Program, so each run sees the edited table.
func TestProtocolTableEditChangesFindings(t *testing.T) {
	dir := writeTree(t, typestateEditFiles)
	orig := *vaultProtocol
	defer func() { *vaultProtocol = orig }()

	base := runFixtureFindings(t, dir, "vaultstate")
	if len(base) != 1 || base[0].Detail == "" || !strings.HasSuffix(base[0].Message, orig.Fail["use"]) {
		t.Fatalf("want one vaultstate finding carrying the table's Fail text and a blame chain, got %v", base)
	}

	vaultProtocol.Fail = map[string]string{
		"use":    orig.Fail["use"] + " (edited)",
		"rotate": orig.Fail["rotate"],
	}
	edited := runFixtureFindings(t, dir, "vaultstate")
	if len(edited) != 1 || !strings.HasSuffix(edited[0].Message, " (edited)") || edited[0].Pos != base[0].Pos {
		t.Fatalf("Fail-text edit did not reach the finding at %v: %v", base[0].Pos, edited)
	}

	vaultProtocol.Trans = append(append([]ProtoEdge(nil), orig.Trans...), ProtoEdge{"closed", "use", "closed"})
	if got := runFixtureFindings(t, dir, "vaultstate"); len(got) != 0 {
		t.Fatalf("the edited table allows use after Close, yet findings remain: %v", got)
	}
}

// typestateBenchFiles exercises all three protocol analyzers: a vault
// lifecycle, a stream derivation fan-out, and an importer of both.
var typestateBenchFiles = merge(vaultTypestateStub, parTypestateStub, map[string]string{
	"internal/core/core.go": `package core

import (
	"repro/internal/par"
	"repro/internal/vault"
)

const (
	streamUnits   = 0
	streamTargets = 9
)

func Generate(seed int64, items []int) []int {
	fn := func(i int) int { return i }
	sub := par.SubSeed(seed, streamTargets)
	return par.Map(par.SubSeed(seed, streamUnits), items, fn)[:int(sub%1 + 0)]
}

func Store(key []byte, rows [][]byte) error {
	v, err := vault.Open(key)
	if err != nil {
		return err
	}
	defer v.Close()
	for _, r := range rows {
		if err := v.Put("d", "t", r); err != nil {
			return err
		}
	}
	return nil
}
`,
	"internal/app/app.go": `package app

import "repro/internal/core"

func Run(key []byte, seed int64) error {
	core.Generate(seed, []int{1, 2, 3})
	return core.Store(key, nil)
}
`,
})

// BenchmarkRepolintTypestate reports the cost of loading, typechecking
// and running just the three L5 analyzers over a fresh program each
// iteration; the BENCH_*.json regression gate tracks it.
func BenchmarkRepolintTypestate(b *testing.B) {
	var analyzers []*Analyzer
	for _, name := range []string{"vaultstate", "sessionproto", "streamidx"} {
		a, ok := AnalyzerByName(name)
		if !ok {
			b.Fatalf("unknown analyzer %q", name)
		}
		analyzers = append(analyzers, a)
	}
	dir := writeTree(b, typestateBenchFiles)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		prog, targets, err := LoadProgram(dir, []string{"./..."})
		if err != nil {
			b.Fatal(err)
		}
		Run(prog, targets, analyzers)
	}
}
