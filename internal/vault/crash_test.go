package vault

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/framelog"
)

var errInjected = errors.New("injected fault")

// faultFS is the real file system with chosen file operations made to
// fail. It counts every operation but reads, and the ops whose numbers
// are in fail fail. In tear mode the first of them is where the process
// dies: from it on no operation has any effect. A write in fail lands
// the first half of its bytes, as a full disk or a crash mid-write
// would. Sync is counted but not performed: the model is a process
// crash, which page-cache contents survive.
type faultFS struct {
	fail  map[int]bool
	tear  bool
	torn  bool
	n     int
	files []*os.File
}

// fault counts one operation and reports whether it fails.
func (fs *faultFS) fault() bool {
	fs.n++
	if fs.fail[fs.n] {
		fs.torn = fs.tear
		return true
	}
	return fs.torn
}

func (fs *faultFS) OpenFile(name string, flag int, perm os.FileMode) (framelog.File, error) {
	if fs.fault() {
		return nil, errInjected
	}
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	fs.files = append(fs.files, f)
	return &faultFile{f, fs}, nil
}

func (fs *faultFS) Remove(name string) error {
	if fs.fault() {
		return errInjected
	}
	return os.Remove(name)
}

// release closes every handle the run opened, abandoned or not.
func (fs *faultFS) release() {
	for _, f := range fs.files {
		f.Close()
	}
}

type faultFile struct {
	*os.File
	fs *faultFS
}

func (f *faultFile) WriteAt(p []byte, off int64) (int, error) {
	if f.fs.fault() {
		if f.fs.fail[f.fs.n] {
			n, _ := f.File.WriteAt(p[:len(p)/2], off)
			return n, errInjected
		}
		return 0, errInjected
	}
	return f.File.WriteAt(p, off)
}

func (f *faultFile) Truncate(size int64) error {
	if f.fs.fault() {
		return errInjected
	}
	return f.File.Truncate(size)
}

func (f *faultFile) Sync() error {
	if f.fs.fault() {
		return errInjected
	}
	return nil
}

func (f *faultFile) Close() error {
	if f.fs.fault() {
		return errInjected // the handle itself is released by release
	}
	return f.File.Close()
}

var crashOpts = LogOptions{Shards: 2, MaxSegmentBytes: 256}

// ackedPut is one Put that returned nil.
type ackedPut struct {
	meta Record
	pt   string
}

// crashOutcome is what a faulted run acknowledged.
type crashOutcome struct {
	live     map[uint64]ackedPut // acknowledged and not surrendered
	gone     map[string]bool     // plaintexts of failed Puts and surrendered records
	maxID    uint64              // highest ID any Put returned
	segments int                 // segments before the Compact
	stats    LogStats            // right after it
	closed   error
}

// crashRun drives the scripted workload through fs: 20 Puts over three
// domains and two shards, a Surrender, an explicit Compact, 10 more
// Puts, then Close. The 256-byte segments rotate every few Puts.
func crashRun(dir string, fs *faultFS) crashOutcome {
	out := crashOutcome{live: map[uint64]ackedPut{}, gone: map[string]bool{}}
	v, err := openLog(DeriveKey("log-pass"), dir, crashOpts, fs)
	if err != nil {
		return out
	}
	v.randRead = seqRand()
	when := time.Unix(0, 1465041600e9).UTC()
	put := func(i int) {
		// Frame sizes vary, so a failed append can be followed by a
		// shorter one.
		pt := fmt.Sprintf("crash-record-%02d%s", i, strings.Repeat("+", 40*(i%4)))
		rec := Record{Domain: fmt.Sprintf("d%d.example", i%3), Verdict: "receiver-typo",
			Received: when.Add(time.Duration(i) * time.Minute)}
		id, err := v.Put(rec.Domain, rec.Verdict, rec.Received, []byte(pt))
		if err != nil {
			out.gone[pt] = true
			return
		}
		rec.ID = id
		out.live[id] = ackedPut{rec, pt}
		out.maxID = max(out.maxID, id)
	}
	for i := 0; i < 20; i++ {
		put(i)
	}
	v.Surrender("d1.example")
	kept := map[uint64]bool{}
	for _, m := range v.Meta() {
		kept[m.ID] = true
	}
	for id, p := range out.live {
		if !kept[id] {
			out.gone[p.pt] = true
			delete(out.live, id)
		}
	}
	out.segments = v.Stats().Segments
	v.Compact()
	out.stats = v.Stats()
	for i := 20; i < 30; i++ {
		put(i)
	}
	out.closed = v.Close()
	return out
}

// checkReplay reopens dir with the real file system and checks what a
// crash after run must leave: every acknowledged, unsurrendered Put
// replays with identical bytes, nothing else does, and new IDs climb
// past every ID handed out before.
func checkReplay(t *testing.T, dir string, run crashOutcome, mode string, k int) {
	t.Helper()
	v, err := OpenLog(DeriveKey("log-pass"), dir, crashOpts)
	if err != nil {
		t.Fatalf("%s op %d: reopen: %v", mode, k, err)
	}
	defer v.Close()
	for _, m := range v.Meta() {
		pt, _, err := v.Get(m.ID)
		if err != nil {
			t.Fatalf("%s op %d: Get(%d) after replay: %v", mode, k, m.ID, err)
		}
		want, ok := run.live[m.ID]
		switch {
		case run.gone[string(pt)]:
			t.Fatalf("%s op %d: record %d (%q) replayed, but its Put failed or it was surrendered", mode, k, m.ID, pt)
		case !ok || string(pt) != want.pt || !sameMeta(m, want.meta):
			t.Fatalf("%s op %d: record %d replayed as %+v %q, want %+v %q", mode, k, m.ID, m, pt, want.meta, want.pt)
		}
	}
	if v.Len() != len(run.live) {
		t.Fatalf("%s op %d: replayed %d records, want the %d acknowledged", mode, k, v.Len(), len(run.live))
	}
	id, err := v.Put("d0.example", "receiver-typo", time.Unix(0, 1465041600e9).UTC(), []byte("after-replay"))
	if err != nil || id <= run.maxID {
		t.Fatalf("%s op %d: Put after replay = %d, %v; want an ID past %d", mode, k, id, err, run.maxID)
	}
}

// TestLogCrashAtEveryWrite makes every file operation of a scripted
// run fail in turn, and separately tear there (the process dies with a
// half-written op), then checks the directory still opens and replays
// exactly what was acknowledged.
func TestLogCrashAtEveryWrite(t *testing.T) {
	clean, dir := &faultFS{}, t.TempDir()
	run := crashRun(dir, clean)
	clean.release()
	if run.closed != nil || run.segments <= crashOpts.Shards || run.stats.Compactions == 0 ||
		len(run.gone) == 0 || len(run.live) == 0 {
		t.Fatalf("fault-free run must rotate, surrender, compact and close: close %v, %d segments before Compact, %+v, %d surrendered, %d live",
			run.closed, run.segments, run.stats, len(run.gone), len(run.live))
	}
	checkReplay(t, dir, run, "none", 0)
	ops := clean.n
	t.Logf("%d file operations in the scripted run", ops)
	for _, tear := range []bool{false, true} {
		mode := map[bool]string{false: "fail", true: "tear"}[tear]
		for k := 1; k <= ops; k++ {
			dir := t.TempDir()
			fs := &faultFS{fail: map[int]bool{k: true}, tear: tear}
			run := crashRun(dir, fs)
			fs.release()
			checkReplay(t, dir, run, mode, k)
		}
	}
}

// TestLogAppendAndCutBackFail fails a Put's frame write, which lands
// half the frame, and then the Truncate that would cut it back. That
// Put and every later Put to the shard must fail and store nothing,
// while the other shard goes on; Close must report the failure; and
// reopening the directory must replay exactly the acknowledged records,
// the half frame dropped as a torn tail.
func TestLogAppendAndCutBackFail(t *testing.T) {
	dir, fs := t.TempDir(), &faultFS{}
	defer fs.release()
	v, err := openLog(DeriveKey("log-pass"), dir, crashOpts, fs)
	if err != nil {
		t.Fatal(err)
	}
	v.randRead = seqRand()
	a, b := "d0.example", "d1.example"
	if shardOf(a, crashOpts.Shards) == shardOf(b, crashOpts.Shards) {
		t.Fatalf("%s and %s share a shard", a, b)
	}
	sa := v.shards[shardOf(a, crashOpts.Shards)]
	run := crashOutcome{live: map[uint64]ackedPut{}, gone: map[string]bool{}}
	when := time.Unix(0, 1465041600e9).UTC()
	put := func(domain, pt string) error {
		rec := Record{Domain: domain, Verdict: "receiver-typo", Received: when}
		id, err := v.Put(rec.Domain, rec.Verdict, rec.Received, []byte(pt))
		if err != nil {
			run.gone[pt] = true
			return err
		}
		rec.ID = id
		run.live[id] = ackedPut{rec, pt}
		run.maxID = max(run.maxID, id)
		return nil
	}
	for _, p := range [][2]string{{a, "acked-a1"}, {b, "acked-b1"}, {a, "acked-a2"}} {
		if err := put(p[0], p[1]); err != nil {
			t.Fatalf("fault-free Put %s: %v", p[1], err)
		}
	}
	if sa.active().Size() > crashOpts.MaxSegmentBytes {
		t.Fatalf("shard of %s would rotate before the faulted append", a)
	}

	// The faulted Put's first operation is its frame write, its second
	// the cut-back.
	before := fs.n
	fs.fail = map[int]bool{before + 1: true, before + 2: true}
	if err := put(a, "failed-a3"); !errors.Is(err, errInjected) {
		t.Fatalf("Put with a failed write and cut-back = %v, want the injected fault", err)
	}
	if fs.n != before+2 {
		t.Fatalf("the faulted Put made %d file operations, want its write and its cut-back", fs.n-before)
	}
	for i := 4; i < 7; i++ {
		if err := put(a, fmt.Sprintf("refused-a%d", i)); !errors.Is(err, errInjected) {
			t.Fatalf("Put %d to the broken shard = %v, want the sticky fault", i, err)
		}
	}
	if err := put(b, "acked-b2"); err != nil {
		t.Fatalf("Put to the healthy shard: %v", err)
	}
	if v.Len() != len(run.live) {
		t.Fatalf("vault holds %d records, %d were acknowledged", v.Len(), len(run.live))
	}
	if err := v.Close(); !errors.Is(err, errInjected) {
		t.Fatalf("Close = %v, want the sticky fault", err)
	}

	// Reopening cuts the half frame away.
	size := func() int64 {
		var n int64
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if fi, err := e.Info(); err == nil {
				n += fi.Size()
			}
		}
		return n
	}
	torn := size()
	r, err := OpenLog(DeriveKey("log-pass"), dir, crashOpts)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if cut := size(); cut >= torn {
		t.Fatalf("reopen left %d segment bytes of %d: no torn tail was cut", cut, torn)
	}
	checkReplay(t, dir, run, "cut-back", 0)
}
