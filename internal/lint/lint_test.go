package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const goMod = "module repro\n\ngo 1.22\n"

// Stub packages giving the sanitize-rule fixtures the module-relative
// paths keyleak keys on. Behavior is irrelevant — only package
// paths, type names and signatures matter to the analysis.
var sanitizeStubs = map[string]string{
	"internal/mailmsg/mailmsg.go": `package mailmsg

type Message struct {
	Subject string
	Body    string
}
`,
	"internal/sanitize/sanitize.go": `package sanitize

func Clean(s string) string { return s }
`,
	"internal/vault/vault.go": `package vault

type Vault struct{}

func (v *Vault) Put(domain, verdict string, plaintext []byte) error { return nil }
`,
}

func writeTree(t testing.TB, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := files["go.mod"]; !ok {
		if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte(goMod), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// runFixture loads the tree as a module and runs the named analyzers
// (all of them when names is empty), returning findings with the temp
// directory stripped from paths.
func runFixture(t *testing.T, dir string, names ...string) []string {
	t.Helper()
	prog, targets, err := LoadProgram(dir, []string{"./..."})
	if err != nil {
		t.Fatalf("LoadProgram: %v", err)
	}
	var as []*Analyzer
	if len(names) == 0 {
		as = Analyzers()
	} else {
		for _, n := range names {
			a, ok := AnalyzerByName(n)
			if !ok {
				t.Fatalf("unknown analyzer %q", n)
			}
			as = append(as, a)
		}
	}
	var out []string
	for _, f := range Run(prog, targets, as) {
		out = append(out, strings.ReplaceAll(f.String(), dir+string(filepath.Separator), ""))
	}
	return out
}

func merge(maps ...map[string]string) map[string]string {
	out := make(map[string]string)
	for _, m := range maps {
		for k, v := range m {
			out[k] = v
		}
	}
	return out
}

func TestAnalyzers(t *testing.T) {
	cases := []struct {
		name     string
		analyzer string
		files    map[string]string
		want     []string // substrings each of which must appear in some finding
		count    int      // exact finding count
	}{
		{
			name:     "sanitizeflow flags raw body reaching log",
			analyzer: "keyleak",
			files: merge(sanitizeStubs, map[string]string{
				"internal/collect/collect.go": `package collect

import (
	"log"

	"repro/internal/mailmsg"
)

func Record(m *mailmsg.Message) {
	log.Printf("body=%s", m.Body)
}
`,
			}),
			want:  []string{"internal/collect/collect.go:10: [keyleak]", "the process log (log.Printf)"},
			count: 1,
		},
		{
			name:     "sanitizeflow accepts sanitized value",
			analyzer: "keyleak",
			files: merge(sanitizeStubs, map[string]string{
				"internal/collect/collect.go": `package collect

import (
	"log"

	"repro/internal/mailmsg"
	"repro/internal/sanitize"
)

func Record(m *mailmsg.Message) {
	log.Printf("body=%s", sanitize.Clean(m.Body))
}
`,
			}),
			count: 0,
		},
		{
			name:     "sanitizeflow flags raw bytes reaching vault.Put",
			analyzer: "keyleak",
			files: merge(sanitizeStubs, map[string]string{
				"internal/collect/collect.go": `package collect

import (
	"repro/internal/mailmsg"
	"repro/internal/vault"
)

func Store(v *vault.Vault, m *mailmsg.Message) error {
	return v.Put("gmial.com", "typo", []byte(m.Body))
}
`,
			}),
			want:  []string{"internal/collect/collect.go:9: [keyleak]", "the encrypted vault (vault.Put)"},
			count: 1,
		},
		{
			name:     "sanitizeflow traces taint through a helper call",
			analyzer: "keyleak",
			files: merge(sanitizeStubs, map[string]string{
				"internal/collect/collect.go": `package collect

import (
	"log"

	"repro/internal/mailmsg"
)

func emit(line string) {
	log.Print(line)
}

func Record(m *mailmsg.Message) {
	emit(m.Subject)
}
`,
			}),
			want:  []string{"internal/collect/collect.go:14: [keyleak]", "flows into emit, which passes it to the process log (log.Print)"},
			count: 1,
		},
		{
			name:     "keyleak follows a raw body through a helper into vault.Put",
			analyzer: "keyleak",
			files: merge(sanitizeStubs, map[string]string{
				"internal/collect/collect.go": `package collect

import (
	"repro/internal/mailmsg"
	"repro/internal/vault"
)

func store(v *vault.Vault, plaintext []byte) error {
	return v.Put("gmial.com", "typo", plaintext)
}

func Record(v *vault.Vault, m *mailmsg.Message) error {
	return store(v, []byte(m.Body))
}
`,
			}),
			want:  []string{"internal/collect/collect.go:13: [keyleak]", "flows into store, which passes it to the encrypted vault (vault.Put)"},
			count: 1,
		},
		{
			name:     "keyleak still checks log sinks inside internal/smtpc",
			analyzer: "keyleak",
			files: merge(sanitizeStubs, map[string]string{
				"internal/smtpc/smtpc.go": `package smtpc

import (
	"log"

	"repro/internal/mailmsg"
)

func Trace(m *mailmsg.Message) {
	log.Printf("sending %s", m.Body)
}
`,
			}),
			want:  []string{"internal/smtpc/smtpc.go:10: [keyleak]", "the process log (log.Printf)"},
			count: 1,
		},
		{
			name:     "keyleak exempts connection writes inside internal/smtpc only",
			analyzer: "keyleak",
			files: merge(sanitizeStubs, map[string]string{
				"internal/smtpc/smtpc.go": `package smtpc

import (
	"fmt"
	"net"

	"repro/internal/mailmsg"
)

func Send(conn net.Conn, m *mailmsg.Message) error {
	if _, err := conn.Write([]byte(m.Body)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(conn, "%s\r\n.\r\n", m.Body)
	return err
}
`,
				"internal/collect/collect.go": `package collect

import (
	"net"

	"repro/internal/mailmsg"
)

func Forward(conn net.Conn, m *mailmsg.Message) error {
	_, err := conn.Write([]byte(m.Body))
	return err
}
`,
			}),
			want:  []string{"internal/collect/collect.go:10: [keyleak]", "a network or file write (Write)"},
			count: 1,
		},
		{
			// Message keeps its headers as a slice of fields; the field
			// table's "header" entry is what taints the values read out
			// of it, since no call on the raw receiver is involved.
			name:     "keyleak flags a header value read from the field slice",
			analyzer: "keyleak",
			files: map[string]string{
				"internal/mailmsg/mailmsg.go": `package mailmsg

import "log"

type headerField struct {
	key  string
	vals []string
}

type Message struct {
	header []headerField
	Body   string
}

func (m *Message) Trace() {
	for _, f := range m.header {
		log.Printf("%s has %d values, first %s", f.key, len(f.vals), f.vals[0])
	}
}
`,
			},
			want:  []string{"internal/mailmsg/mailmsg.go:17: [keyleak]", "the process log (log.Printf)"},
			count: 1,
		},
		{
			name:     "mutexcopy flags by-value lock parameter",
			analyzer: "mutexcopy",
			files: map[string]string{
				"internal/pipeline/p.go": `package pipeline

import "sync"

type Counter struct {
	mu sync.Mutex
	n  int
}

func Snapshot(c Counter) int {
	return c.n
}
`,
			},
			want:  []string{"internal/pipeline/p.go:10: [mutexcopy]", "use a pointer"},
			count: 1,
		},
		{
			name:     "mutexcopy accepts pointer parameter",
			analyzer: "mutexcopy",
			files: map[string]string{
				"internal/pipeline/p.go": `package pipeline

import "sync"

type Counter struct {
	mu sync.Mutex
	n  int
}

func Snapshot(c *Counter) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}
`,
			},
			count: 0,
		},
		{
			name:     "ctxleak flags discarded cancel",
			analyzer: "ctxleak",
			files: map[string]string{
				"internal/pipeline/p.go": `package pipeline

import "context"

func Poll(parent context.Context) error {
	ctx, _ := context.WithCancel(parent)
	return ctx.Err()
}
`,
			},
			want:  []string{"internal/pipeline/p.go:6: [ctxleak]", "cancel func of context.WithCancel is discarded"},
			count: 1,
		},
		{
			name:     "ctxleak flags return path that skips cancel",
			analyzer: "ctxleak",
			files: map[string]string{
				"internal/pipeline/p.go": `package pipeline

import "context"

func Poll(parent context.Context, fast bool) error {
	ctx, cancel := context.WithCancel(parent)
	if fast {
		cancel()
		return nil
	}
	return ctx.Err()
}
`,
			},
			want:  []string{"[ctxleak]", "return without invoking the cancel func"},
			count: 1,
		},
		{
			name:     "ctxleak accepts deferred cancel",
			analyzer: "ctxleak",
			files: map[string]string{
				"internal/pipeline/p.go": `package pipeline

import "context"

func Poll(parent context.Context) error {
	ctx, cancel := context.WithCancel(parent)
	defer cancel()
	return ctx.Err()
}
`,
			},
			count: 0,
		},
		{
			name:     "errdrop flags bare and blank-assigned errors in I/O packages",
			analyzer: "errdrop",
			files: map[string]string{
				"internal/resolve/r.go": `package resolve

import "os"

func Cleanup(path string) {
	os.Remove(path)
	_ = os.Remove(path)
}
`,
			},
			want: []string{
				"internal/resolve/r.go:6: [errdrop]",
				"internal/resolve/r.go:7: [errdrop]",
			},
			count: 2,
		},
		{
			name:     "errdrop ignores handled errors, Close, and out-of-scope packages",
			analyzer: "errdrop",
			files: map[string]string{
				"internal/resolve/r.go": `package resolve

import (
	"io"
	"os"
)

func Cleanup(path string, c io.Closer) error {
	c.Close()
	return os.Remove(path)
}
`,
				"internal/honey/h.go": `package honey

import "os"

func Cleanup(path string) {
	os.Remove(path)
}
`,
			},
			count: 0,
		},
		{
			name:     "timenondeterminism flags time.Now in a simulation package",
			analyzer: "timenondeterminism",
			files: map[string]string{
				"internal/stats/s.go": `package stats

import "time"

func Stamp() time.Time {
	return time.Now()
}
`,
			},
			want: []string{
				"internal/stats/s.go:6: [timenondeterminism]",
				"direct time.Now in simulation package repro/internal/stats",
			},
			count: 1,
		},
		{
			name:     "timenondeterminism ignores packages outside the simulation set",
			analyzer: "timenondeterminism",
			files: map[string]string{
				"internal/netio/n.go": `package netio

import "time"

func Stamp() time.Time {
	return time.Now()
}
`,
			},
			count: 0,
		},
		{
			name:     "waiver directive suppresses the next line",
			analyzer: "errdrop",
			files: map[string]string{
				"internal/resolve/r.go": `package resolve

import "os"

func Cleanup(path string) {
	//repolint:allow errdrop removal is advisory; the path may already be gone
	os.Remove(path)
}
`,
			},
			count: 0,
		},
		{
			name:     "malformed waiver is itself a finding",
			analyzer: "errdrop",
			files: map[string]string{
				"internal/resolve/r.go": `package resolve

func Cleanup(path string) {
	//repolint:allow errdrop
	_ = path
}
`,
			},
			want:  []string{"internal/resolve/r.go:4: [directive]", "malformed waiver"},
			count: 1,
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

// TestDriverGoldenOutput pins the exact driver-facing output — paths,
// line numbers, analyzer tags, messages, and sort order — for a fixture
// violating three analyzers across two packages.
func TestDriverGoldenOutput(t *testing.T) {
	dir := writeTree(t, map[string]string{
		"internal/resolve/resolve.go": `package resolve

import "os"

func Cleanup(path string) {
	os.Remove(path)
}
`,
		"internal/stats/stats.go": `package stats

import (
	"sync"
	"time"
)

type Tally struct {
	mu sync.Mutex
	n  int
}

func Snapshot(tl Tally) int {
	return tl.n
}

func Now() time.Time {
	return time.Now()
}
`,
	})
	got := strings.Join(runFixture(t, dir), "\n")
	want := strings.Join([]string{
		"internal/resolve/resolve.go:6: [errdrop] os.Remove error return value is dropped; handle it or waive with //repolint:allow errdrop <reason>",
		"internal/stats/stats.go:13: [mutexcopy] parameter is passed by value but Tally carries a sync.Mutex (via Tally.mu); use a pointer",
		"internal/stats/stats.go:18: [timenondeterminism] direct time.Now in simulation package repro/internal/stats; take time from internal/simclock or an injected clock",
	}, "\n")
	if got != want {
		t.Errorf("driver output mismatch\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestLoadProgramRejectsUnknownPattern: a pattern matching nothing is a
// usage error, not a silent no-op.
func TestLoadProgramRejectsUnknownPattern(t *testing.T) {
	dir := writeTree(t, map[string]string{
		"internal/stats/s.go": "package stats\n",
	})
	if _, _, err := LoadProgram(dir, []string{"./cmd/nonesuch"}); err == nil {
		t.Fatal("want error for pattern matching no packages")
	}
}
