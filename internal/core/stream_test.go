package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/framelog"
	"repro/internal/mailmsg"
	"repro/internal/par"
	"repro/internal/spamfilter"
)

// renderRun renders one study run's resultString under the given knobs,
// running it with run: (*Study).Run or the test oracle (*Study).runOracle.
func renderRun(t *testing.T, cfg Config, workers int, run func(*Study) (*Result, error)) string {
	t.Helper()
	par.SetWorkers(workers)
	s, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := run(s)
	if err != nil {
		t.Fatal(err)
	}
	return resultString(res)
}

// TestRunSeedEquivalence asserts the determinism-under-parallelism
// contract on the collection run at its default knobs: for several
// seeds, a parallel Run is byte-identical to the sequential (Workers=1)
// one.
func TestRunSeedEquivalence(t *testing.T) {
	defer par.SetWorkers(0)
	for _, seed := range []int64{3, 77, 20160604} {
		cfg := DefaultConfig()
		cfg.Seed = seed
		cfg.Days = 60
		ref := renderRun(t, cfg, 1, (*Study).Run)
		for _, w := range []int{2, 8} {
			if got := renderRun(t, cfg, w, (*Study).Run); got != ref {
				t.Fatalf("seed %d: workers=%d result differs from sequential run", seed, w)
			}
		}
	}
}

// TestStreamingSeedEquivalence is the run's determinism contract: for
// several seeds, Run is byte-identical to the test oracle at any worker
// count, chunk size and spill budget. A chunk of Days days is the
// materialized run's shape inside Run: one generation fan-out and a
// resident survivor log.
func TestStreamingSeedEquivalence(t *testing.T) {
	defer par.SetWorkers(0)
	for _, seed := range []int64{3, 77, 20160604} {
		cfg := DefaultConfig()
		cfg.Seed = seed
		cfg.Days = 60

		ref := renderRun(t, cfg, 1, (*Study).runOracle)

		type knobs struct {
			workers, chunkDays int
			budget             int64 // spill budget; 0 runs without a SpillDir
		}
		var cases []knobs
		for _, w := range []int{1, 2, 8} {
			for _, c := range []int{1, 8, 64, cfg.Days} {
				cases = append(cases, knobs{workers: w, chunkDays: c})
			}
		}
		cases = append(cases, knobs{workers: 8, chunkDays: 8, budget: 1 << 14})
		for _, tc := range cases {
			scfg := cfg
			scfg.StreamChunkDays = tc.chunkDays
			if tc.budget > 0 {
				scfg.SpillDir = t.TempDir()
				scfg.SpillBudgetBytes = tc.budget
			}
			if got := renderRun(t, scfg, tc.workers, (*Study).Run); got != ref {
				t.Fatalf("seed %d %+v: result differs from the oracle", seed, tc)
			}
			if tc.budget > 0 {
				left, _ := filepath.Glob(filepath.Join(scfg.SpillDir, "*.spill"))
				if len(left) != 0 {
					t.Fatalf("seed %d %+v: spill segments left behind: %v", seed, tc, left)
				}
			}
		}
	}
}

// TestStreamingLogVaultEquivalence runs Run against the log-structured
// vault backend and checks the study output is identical to the test
// oracle's over the in-memory vault — the backends and the chunked run
// compose without observable difference.
func TestStreamingLogVaultEquivalence(t *testing.T) {
	defer par.SetWorkers(0)
	cfg := DefaultConfig()
	cfg.Seed = 77
	cfg.Days = 45
	ref := renderRun(t, cfg, 1, (*Study).runOracle)

	scfg := cfg
	scfg.VaultDir = t.TempDir()
	scfg.VaultSegmentBytes = 1 << 14 // force rotation
	if got := renderRun(t, scfg, 4, (*Study).Run); got != ref {
		t.Fatal("logvault result differs from the oracle")
	}
}

func pendTestEmail(day int, body string) *spamfilter.Email {
	msg := mailmsg.New()
	msg.AddHeader("From", "a@b.example")
	msg.Body = body
	return &spamfilter.Email{
		Msg: msg, ServerDomain: "d.example", RcptAddr: "x@d.example",
		SenderAddr: "a@b.example",
		Received:   time.Date(2016, 6, 4+day, 12, 0, 0, 0, time.UTC),
	}
}

// testSpillDir is a spill directory at dir on the real file system; an
// empty dir spills nothing.
func testSpillDir(t *testing.T, dir string) *spillDir {
	t.Helper()
	sp, err := newSpillDir(framelog.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestPendQueueSpillRoundTrip drives the spill queue past its budget and
// checks drain order, metadata fidelity, and on-disk hygiene.
func TestPendQueueSpillRoundTrip(t *testing.T) {
	dir := t.TempDir()
	q := newPendQueue(testSpillDir(t, dir), 4096)
	defer q.close()

	const perDay = 10
	for day := 0; day < 4; day++ {
		for i := 0; i < perDay; i++ {
			pe := pendEmail{
				e:           pendTestEmail(day, fmt.Sprintf("body day=%d i=%d padding padding padding", day, i)),
				di:          day*perDay + i,
				contaminant: i%3 == 0,
			}
			if err := q.add(day, pe); err != nil {
				t.Fatal(err)
			}
		}
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "*.spill"))
	if len(segs) == 0 {
		t.Fatal("budget never triggered a spill: no spill files on disk")
	}
	// Spilled bytes must be ciphertext: the bodies are absent from disk.
	for _, seg := range segs {
		raw, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if containsSub(raw, []byte("padding")) {
			t.Fatalf("plaintext body found in spill segment %s", seg)
		}
	}

	for day := 0; day < 4; day++ {
		got, err := q.take(day)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != perDay {
			t.Fatalf("day %d: got %d emails, want %d", day, len(got), perDay)
		}
		for i, pe := range got {
			wantBody := fmt.Sprintf("body day=%d i=%d padding padding padding", day, i)
			if pe.e.Msg.Body != wantBody {
				t.Fatalf("day %d slot %d: body %q, want %q (append order lost)", day, i, pe.e.Msg.Body, wantBody)
			}
			if pe.di != day*perDay+i || pe.contaminant != (i%3 == 0) {
				t.Fatalf("day %d slot %d: metadata lost: di=%d contaminant=%v", day, i, pe.di, pe.contaminant)
			}
			if !pe.e.Received.Equal(pendTestEmail(day, "").Received) {
				t.Fatalf("day %d slot %d: Received mutated", day, i)
			}
		}
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*.spill")); len(left) != 0 {
		t.Fatalf("spill segments left after drain: %v", left)
	}
	if q.mem != 0 || len(q.days) != 0 {
		t.Fatalf("queue accounting nonzero after drain: mem=%d days=%d", q.mem, len(q.days))
	}
}

// TestPendQueueDrop checks outage-day drops delete spill segments unread.
func TestPendQueueDrop(t *testing.T) {
	dir := t.TempDir()
	q := newPendQueue(testSpillDir(t, dir), 1) // spill on every add
	defer q.close()
	for i := 0; i < 5; i++ {
		if err := q.add(2, pendEmail{e: pendTestEmail(2, "to be dropped")}); err != nil {
			t.Fatal(err)
		}
	}
	if segs, _ := filepath.Glob(filepath.Join(dir, "*.spill")); len(segs) == 0 {
		t.Fatal("expected a spill segment before drop")
	}
	q.drop(2)
	if left, _ := filepath.Glob(filepath.Join(dir, "*.spill")); len(left) != 0 {
		t.Fatalf("drop left segments: %v", left)
	}
	got, err := q.take(2)
	if err != nil || len(got) != 0 {
		t.Fatalf("take after drop: got %d emails, err %v", len(got), err)
	}
}

// TestPendEmailCodecRoundTrip checks the spill frame's plaintext codec:
// every field of a survivor entry (queue metadata, verdict, Layer 5
// keys, envelope, message) survives the round trip, and every truncated
// prefix of a frame is rejected rather than decoded short.
func TestPendEmailCodecRoundTrip(t *testing.T) {
	e := pendTestEmail(3, "survivor body")
	e.SMTPTypoDomain = true
	e.Msg.Attachments = append(e.Msg.Attachments, mailmsg.Attachment{Filename: "a.txt", ContentType: "text/plain", Data: []byte("attached")})
	in := pendEmail{
		e: e, di: 41, contaminant: true,
		verdict: spamfilter.VerdictSMTPTypo,
		keys:    spamfilter.FreqKeys{Rcpt: 1 << 63, Sender: 0x0123456789abcdef, Content: 7},
	}
	wire := encodePendEmail(nil, &in)
	out, err := decodePendEmail(wire)
	if err != nil {
		t.Fatal(err)
	}
	if out.di != in.di || out.contaminant != in.contaminant || out.verdict != in.verdict || out.keys != in.keys {
		t.Fatalf("metadata: got di=%d contaminant=%v verdict=%v keys=%+v, want di=%d contaminant=%v verdict=%v keys=%+v",
			out.di, out.contaminant, out.verdict, out.keys, in.di, in.contaminant, in.verdict, in.keys)
	}
	if out.e.ServerDomain != e.ServerDomain || out.e.RcptAddr != e.RcptAddr || out.e.SenderAddr != e.SenderAddr ||
		out.e.SMTPTypoDomain != e.SMTPTypoDomain || !out.e.Received.Equal(e.Received) {
		t.Fatalf("envelope: got %+v, want %+v", *out.e, *e)
	}
	if got, want := string(out.e.Msg.AppendWire(nil)), string(e.Msg.AppendWire(nil)); got != want {
		t.Fatal("message differs after the round trip")
	}
	for n := 0; n < len(wire); n++ {
		if _, err := decodePendEmail(wire[:n]); err == nil {
			t.Fatalf("a %d-byte prefix of the %d-byte frame decoded without error", n, len(wire))
		}
	}
}

// TestSurvivorLog checks the survivor log's pendFIFO contract: entries drain in
// the order added across sealed and resident ones, sealed bytes are
// ciphertext, a torn frame is an error, and no spill file outlives a
// drain or a close.
func TestSurvivorLog(t *testing.T) {
	body := func(i int) string { return fmt.Sprintf("survivor %d padding padding padding", i) }
	fill := func(t *testing.T, l *pendFIFO, n int, sealEvery int) {
		t.Helper()
		for i := 0; i < n; i++ {
			l.add(pendEmail{e: pendTestEmail(i%5, body(i)), di: i, verdict: spamfilter.VerdictReceiverTypo,
				keys: spamfilter.FreqKeys{Rcpt: spamfilter.FreqKey(i), Content: spamfilter.FreqKey(3 * i)}})
			if (i+1)%sealEvery == 0 {
				if err := l.seal(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	spills := func(dir string) []string {
		left, _ := filepath.Glob(filepath.Join(dir, "*.spill"))
		return left
	}

	for _, tc := range []struct {
		name  string
		spill bool
	}{{"sealed", true}, {"resident", false}} {
		t.Run(tc.name+"/fifo", func(t *testing.T) {
			dir := t.TempDir()
			logDir := ""
			if tc.spill {
				logDir = dir
			}
			l := &pendFIFO{sp: testSpillDir(t, logDir), name: "survivors.spill"}
			defer l.close()
			const n = 23 // seals at 7, 14, 21; the last two stay resident
			fill(t, l, n, 7)
			if tc.spill {
				segs := spills(dir)
				if len(segs) != 1 || l.frames != 21 || len(l.mem) != 2 {
					t.Fatalf("after sealing: files %v, %d frames, %d resident; want 1 file, 21, 2", segs, l.frames, len(l.mem))
				}
				raw, err := os.ReadFile(segs[0])
				if err != nil {
					t.Fatal(err)
				}
				if containsSub(raw, []byte("padding")) {
					t.Fatal("plaintext body found in the survivor log")
				}
			} else if l.log != nil || len(l.mem) != n {
				t.Fatalf("resident log: file %v, %d resident; want none, %d", l.log, len(l.mem), n)
			}
			i := 0
			err := l.drain(func(pe *pendEmail) error {
				if pe.e.Msg.Body != body(i) || pe.di != i || pe.verdict != spamfilter.VerdictReceiverTypo ||
					pe.keys != (spamfilter.FreqKeys{Rcpt: spamfilter.FreqKey(i), Content: spamfilter.FreqKey(3 * i)}) {
					t.Fatalf("entry %d: got body %q di %d verdict %v keys %+v", i, pe.e.Msg.Body, pe.di, pe.verdict, pe.keys)
				}
				i++
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if i != n {
				t.Fatalf("drained %d entries, want %d", i, n)
			}
			if left := spills(dir); len(left) != 0 {
				t.Fatalf("spill files left after drain: %v", left)
			}
		})
	}

	t.Run("torn", func(t *testing.T) {
		dir := t.TempDir()
		l := &pendFIFO{sp: testSpillDir(t, dir), name: "survivors.spill"}
		defer l.close()
		fill(t, l, 4, 4)
		if err := os.Truncate(filepath.Join(dir, l.name), l.log.Size()-3); err != nil {
			t.Fatal(err)
		}
		drained := 0
		err := l.drain(func(*pendEmail) error { drained++; return nil })
		if err == nil {
			t.Fatal("draining a truncated log returned no error")
		}
		if drained != 3 {
			t.Fatalf("drained %d entries before the torn frame, want 3", drained)
		}
		l.close()
		if left := spills(dir); len(left) != 0 {
			t.Fatalf("spill files left after close: %v", left)
		}
	})
}

func containsSub(b, sub []byte) bool {
	for i := 0; i+len(sub) <= len(b); i++ {
		match := true
		for j := range sub {
			if b[i+j] != sub[j] {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}

var errSpillFault = errors.New("injected spill write fault")

// spillFaultFS is the real file system whose k-th write lands half its
// bytes and fails; with k = 0 it only counts the writes.
type spillFaultFS struct{ k, n int }

func (fs *spillFaultFS) OpenFile(name string, flag int, perm os.FileMode) (framelog.File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &spillFaultFile{f, fs}, nil
}

func (fs *spillFaultFS) Remove(name string) error { return os.Remove(name) }

type spillFaultFile struct {
	*os.File
	fs *spillFaultFS
}

func (f *spillFaultFile) WriteAt(p []byte, off int64) (int, error) {
	if f.fs.n++; f.fs.n == f.fs.k {
		n, _ := f.File.WriteAt(p[:len(p)/2], off)
		return n, errSpillFault
	}
	return f.File.WriteAt(p, off)
}

// TestSpillWriteFailure fails each spill write of a run in turn — the
// pending queue's day files and the survivor log alike: Run must return
// the error, and no spill file may outlive it.
func TestSpillWriteFailure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Days = 16
	cfg.StreamChunkDays = 4
	cfg.SpillBudgetBytes = 1 << 15
	run := func(fs *spillFaultFS) (error, []string) {
		t.Helper()
		cfg.SpillDir = t.TempDir()
		s, err := NewStudy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.spillFS = fs
		_, err = s.Run()
		left, _ := filepath.Glob(filepath.Join(cfg.SpillDir, "*.spill"))
		return err, left
	}
	clean := &spillFaultFS{}
	if err, left := run(clean); err != nil || len(left) != 0 {
		t.Fatalf("fault-free run: %v, spill files left: %v", err, left)
	}
	t.Logf("%d spill writes", clean.n)
	for k := 1; k <= clean.n; k++ {
		if err, left := run(&spillFaultFS{k: k}); !errors.Is(err, errSpillFault) || len(left) != 0 {
			t.Fatalf("write %d of %d failed: Run returned %v, spill files left: %v", k, clean.n, err, left)
		}
	}
}
