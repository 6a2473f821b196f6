package lint

import "testing"

// benchFiles is a small but representative module: several packages,
// cross-package calls, concurrency idioms that exercise the CFG-based
// analyzers, and one raw-message source/vault sink pair for keyleak.
var benchFiles = map[string]string{
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
	"internal/collect/collect.go": `package collect

import (
	"context"
	"sync"

	"repro/internal/mailmsg"
	"repro/internal/sanitize"
	"repro/internal/vault"
)

type Store struct {
	mu    sync.Mutex
	items []string
}

func (s *Store) Add(m *mailmsg.Message) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.items = append(s.items, sanitize.Clean(m.Subject))
}

func (s *Store) Flush(ctx context.Context, v *vault.Vault, jobs <-chan *mailmsg.Message) {
	sem := make(chan struct{}, 8)
	var wg sync.WaitGroup
	for m := range jobs {
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			wg.Wait()
			return
		}
		wg.Add(1)
		m := m
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			v.Put("example.org", "typo", []byte(sanitize.Clean(m.Body)))
		}()
	}
	wg.Wait()
}
`,
	"internal/pipeline/pipeline.go": `package pipeline

import (
	"context"

	"repro/internal/collect"
	"repro/internal/mailmsg"
	"repro/internal/vault"
)

func Run(ctx context.Context, msgs []*mailmsg.Message) {
	jobs := make(chan *mailmsg.Message)
	var s collect.Store
	go func() {
		defer close(jobs)
		for _, m := range msgs {
			select {
			case jobs <- m:
			case <-ctx.Done():
				return
			}
		}
	}()
	s.Flush(ctx, &vault.Vault{}, jobs)
	_ = s
}
`,
}

// BenchmarkRepolintLoad measures the full pipeline per iteration:
// parse, typecheck, and analyze a module from a cold start.
func BenchmarkRepolintLoad(b *testing.B) {
	dir := writeTree(b, benchFiles)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		prog, targets, err := LoadProgram(dir, []string{"./..."})
		if err != nil {
			b.Fatal(err)
		}
		Run(prog, targets, Analyzers())
	}
}

// BenchmarkRepolintAnalyze isolates the analysis phase the parallel
// driver speeds up: the module is loaded once, whole-module analyzer
// state is warmed, then each iteration reruns every analyzer.
func BenchmarkRepolintAnalyze(b *testing.B) {
	dir := writeTree(b, benchFiles)
	prog, targets, err := LoadProgram(dir, []string{"./..."})
	if err != nil {
		b.Fatal(err)
	}
	Run(prog, targets, Analyzers())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(prog, targets, Analyzers())
	}
}
