// The log-structured on-disk backend: append-only segment files of
// framed encrypted records (internal/framelog), sharded per domain, with
// inline compaction and Export/Restore snapshots. Plaintext never
// touches disk (records are sealed exactly as in the in-memory Vault),
// and Close models unmounting the removable key: the AEAD becomes
// unreachable and only clear metadata stays readable.
//
// Durability: an acknowledged Put is a whole frame in the file before
// Put returns, so it survives a process crash; it survives power loss
// once the next rotation, Compact or Close returns, each of which syncs
// what it finished and then the directory. A Put that returns an error
// stored nothing: a full segment rotates before the append, not after.
//
// Determinism: given the same key, nonce source and call sequence, a
// LogVault assigns the same IDs and produces an Export stream
// byte-identical to the in-memory Vault's. Compaction runs inline on
// the calling goroutine, never in the background, so segment layout
// never depends on scheduling.
package vault

import (
	"bytes"
	"crypto/cipher"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro/internal/framelog"
)

// LogOptions tunes the segment backend. The zero value gets sensible
// defaults; tests shrink MaxSegmentBytes to force rotation.
type LogOptions struct {
	// Shards is the number of per-domain shard logs (default 4). Each
	// domain's records land in hash(domain) mod Shards, so surrendering
	// a domain dirties one shard, not all of them.
	Shards int
	// MaxSegmentBytes rotates a shard's active segment once it grows
	// past this size (default 4 MiB).
	MaxSegmentBytes int64
}

func (o LogOptions) withDefaults() LogOptions {
	if o.Shards <= 0 {
		o.Shards = 4
	}
	if o.MaxSegmentBytes <= 0 {
		o.MaxSegmentBytes = 4 << 20
	}
	return o
}

// Segment wire format. Each file starts with a 20-byte header (magic,
// shard index, segment sequence number), followed by framelog frames.
// Put payloads are the Export record layout; a torn trailing frame
// (crash mid-append) is truncated away on reopen.
const (
	segMagic      = "VLTSEG1\n"
	segHeaderSize = len(segMagic) + 4 + 8

	framePut    = 'P' // one sealed record
	frameTomb   = 'T' // tombstone: the record id was surrendered
	frameNextID = 'N' // id high-water mark (written by compaction)
)

// logRecord is the in-memory index entry: clear metadata plus where the
// sealed payload lives on disk.
type logRecord struct {
	meta  Record
	shard int
	seg   uint64
	off   int64 // payload offset within the segment file
	size  int64 // payload length
}

// logShard is one shard's segment chain: an open log per segment, the
// active one (segs[seq]) appended to at its tracked size.
type logShard struct {
	id   int
	seq  uint64 // active segment sequence number
	segs map[uint64]*framelog.Log
	live int64 // bytes of frames still reachable from the index
	dead int64 // bytes of surrendered/compacted-away frames
}

func (sh *logShard) active() *framelog.Log { return sh.segs[sh.seq] }

// append writes one frame to the active segment and returns the
// payload offset.
func (sh *logShard) append(typ byte, payload []byte) (int64, error) {
	at, err := sh.active().Append(framelog.Append(nil, typ, payload))
	return at + framelog.HeaderSize, err
}

// LogVault is the append-only segment-backed Store. It follows the
// vault lifecycle protocol (see Store): rotation and compaction are
// open-state operations (repolint's vaultstate checks call sites).
type LogVault struct {
	dir  string
	opts LogOptions

	mu          sync.RWMutex
	aead        cipher.AEAD
	idx         map[uint64]*logRecord
	nextID      uint64
	closed      bool
	shards      []*logShard
	compactions int

	// Entropy source; overridable for deterministic tests.
	randRead func([]byte) (int, error)
	// File operations; tests substitute ones that fail or tear.
	fsys framelog.FS
}

// OpenLog opens (or creates) a log-structured vault in dir, sealed with
// key. An existing directory is replayed: every segment's frames are
// re-indexed, tombstones are applied, and a torn tail in a shard's final
// segment (a crash mid-append) is truncated away. The key itself is
// never stored anywhere under dir.
func OpenLog(key Key, dir string, opts LogOptions) (*LogVault, error) {
	return openLog(key, dir, opts, framelog.OS)
}

func openLog(key Key, dir string, opts LogOptions, fsys framelog.FS) (*LogVault, error) {
	aead, err := newAEAD(key)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, fmt.Errorf("vault: segment dir: %w", err)
	}
	v := &LogVault{
		dir:      dir,
		opts:     opts.withDefaults(),
		aead:     aead,
		idx:      make(map[uint64]*logRecord),
		nextID:   1,
		randRead: rand.Read,
		fsys:     fsys,
	}
	if err := v.replay(); err != nil {
		v.Close()
		return nil, err
	}
	return v, nil
}

func segPath(dir string, shard int, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("shard%d-%08d.seg", shard, seq))
}

// segHeader is the header segment seq of shard starts with.
func segHeader(shard int, seq uint64) []byte {
	hdr := append(make([]byte, 0, segHeaderSize), segMagic...)
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(shard))
	return binary.BigEndian.AppendUint64(hdr, seq)
}

// parseSegName inverts segPath's naming.
func parseSegName(name string) (shard int, seq uint64, ok bool) {
	_, err := fmt.Sscanf(name, "shard%d-%d.seg", &shard, &seq)
	return shard, seq, err == nil && shard >= 0 && seq > 0 && name == filepath.Base(segPath("", shard, seq))
}

// shardOf maps a domain to its shard by FNV-1a.
func shardOf(domain string, shards int) int {
	var h uint32 = 2166136261
	for i := 0; i < len(domain); i++ {
		h ^= uint32(domain[i])
		h *= 16777619
	}
	return int(h % uint32(shards))
}

// replay scans dir, rebuilds the index and opens the shard chains.
func (v *LogVault) replay() error {
	entries, err := os.ReadDir(v.dir)
	if err != nil {
		return fmt.Errorf("vault: scanning segment dir: %w", err)
	}
	segs := map[int][]uint64{}
	shardCount := v.opts.Shards
	for _, e := range entries {
		s, q, ok := parseSegName(e.Name())
		if !ok {
			continue
		}
		segs[s] = append(segs[s], q)
		if s >= shardCount {
			shardCount = s + 1
		}
	}
	v.shards = make([]*logShard, shardCount)
	for i := range v.shards {
		v.shards[i] = &logShard{id: i, segs: make(map[uint64]*framelog.Log)}
	}

	// Tombstones are applied globally after all shards replay: within a
	// shard frames are ordered, and a shard-count change between runs
	// must still pair every tombstone with its put.
	tombs := map[uint64]bool{}
	for s := 0; s < shardCount; s++ {
		sh := v.shards[s]
		seqs := segs[s]
		slices.Sort(seqs)
		for k, q := range seqs {
			if err := v.replaySegment(sh, q, k == len(seqs)-1, tombs); err != nil {
				return err
			}
			sh.seq = q
		}
		if len(seqs) == 0 {
			if err := v.newSegment(sh, 1); err != nil {
				return err
			}
		}
	}
	for id := range tombs {
		if lr, ok := v.idx[id]; ok {
			delete(v.idx, id)
			sh := v.shards[lr.shard]
			sh.live -= framelog.HeaderSize + lr.size
			sh.dead += framelog.HeaderSize + lr.size
		}
	}
	return nil
}

// replaySegment reads one segment file, indexes its frames and keeps
// its log open for reads (and appends, if it is the active one). A torn
// tail in the final segment of a shard is cut away; anywhere else it is
// corruption. The torn tail may be the header itself: rotation creates
// the file and writes its header in two steps.
func (v *LogVault) replaySegment(sh *logShard, seq uint64, last bool, tombs map[uint64]bool) error {
	path := segPath(v.dir, sh.id, seq)
	bad := func(what string) error { return fmt.Errorf("vault: segment %s: %s", filepath.Base(path), what) }
	l, data, err := framelog.Open(v.fsys, path)
	if err != nil {
		return fmt.Errorf("vault: reading segment: %w", err)
	}
	sh.segs[seq] = l // Close owns it from here
	hdr := segHeader(sh.id, seq)
	if last && len(data) < len(hdr) && bytes.HasPrefix(hdr, data) {
		if err := l.Truncate(0); err != nil {
			return err
		}
		if _, err := l.Append(hdr); err != nil {
			return err
		}
		data = hdr
	}
	if !bytes.HasPrefix(data, hdr) {
		return bad("bad header")
	}
	valid, err := framelog.Scan(data[segHeaderSize:], func(typ byte, payload []byte, at int) error {
		switch typ {
		case framePut:
			rec, rest, err := decodeRecord(payload)
			if err != nil || len(rest) != 0 {
				return bad("malformed record")
			}
			rec.nonce, rec.ciphertext = nil, nil // they stay on disk
			v.idx[rec.ID] = &logRecord{
				meta: rec, shard: sh.id, seg: seq,
				off: int64(segHeaderSize + at), size: int64(len(payload)),
			}
			sh.live += framelog.HeaderSize + int64(len(payload))
			v.nextID = max(v.nextID, rec.ID+1)
		case frameTomb:
			if len(payload) != 8 {
				return bad("bad tombstone")
			}
			tombs[binary.BigEndian.Uint64(payload)] = true
			sh.dead += framelog.HeaderSize + int64(len(payload))
		case frameNextID:
			if len(payload) != 8 {
				return bad("bad id marker")
			}
			v.nextID = max(v.nextID, binary.BigEndian.Uint64(payload))
		default:
			return bad(fmt.Sprintf("unknown frame type %q", typ))
		}
		return nil
	})
	if err != nil {
		return err
	}
	if valid += segHeaderSize; valid < len(data) {
		if !last {
			return bad("torn frame in non-final segment")
		}
		if err := l.Truncate(int64(valid)); err != nil {
			return fmt.Errorf("vault: truncating torn segment: %w", err)
		}
	}
	return nil
}

// newSegment creates segment seq for sh and makes it active.
func (v *LogVault) newSegment(sh *logShard, seq uint64) error {
	l, err := framelog.Create(v.fsys, segPath(v.dir, sh.id, seq), segHeader(sh.id, seq))
	if err != nil {
		return fmt.Errorf("vault: creating segment: %w", err)
	}
	sh.segs[seq], sh.seq = l, seq
	return nil
}

// Put encrypts and appends plaintext to the domain's shard, returning
// the record ID. Semantics match the in-memory Vault exactly.
func (v *LogVault) Put(domain, verdict string, received time.Time, plaintext []byte) (uint64, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.closed {
		return 0, ErrClosed
	}
	rec := Record{ID: v.nextID, Domain: domain, Verdict: verdict, Received: received}
	if err := rec.seal(v.aead, v.randRead, plaintext); err != nil {
		return 0, err
	}
	if err := v.appendPut(rec); err != nil {
		return 0, err
	}
	v.nextID++
	return rec.ID, nil
}

// appendPut appends one sealed record to its domain's shard and indexes
// it. A shard already past MaxSegmentBytes rotates first, so a failed
// rotation stores nothing.
func (v *LogVault) appendPut(rec Record) error {
	sh := v.shards[shardOf(rec.Domain, len(v.shards))]
	if sh.active().Size() > v.opts.MaxSegmentBytes {
		if err := v.rotate(sh); err != nil {
			return err
		}
	}
	payload := encodeRecord(&rec)
	off, err := sh.append(framePut, payload)
	if err != nil {
		return err
	}
	rec.nonce, rec.ciphertext = nil, nil // they stay on disk
	v.idx[rec.ID] = &logRecord{meta: rec, shard: sh.id, seg: sh.seq, off: off, size: int64(len(payload))}
	sh.live += framelog.HeaderSize + int64(len(payload))
	return nil
}

// rotate finishes sh's active segment and opens the next one,
// compacting instead once dead bytes are at least half the shard. The
// finished segment and the directory are synced first.
func (v *LogVault) rotate(sh *logShard) error {
	if sh.dead > 0 && sh.dead >= sh.live {
		return v.compactShard(sh)
	}
	if err := sh.active().Sync(); err != nil {
		return err
	}
	if err := v.newSegment(sh, sh.seq+1); err != nil {
		return err
	}
	return framelog.SyncDir(v.fsys, v.dir)
}

// compactShard rewrites sh's live records (in ID order) into a fresh
// segment, led by an id high-water marker so replay never reuses a
// surrendered ID, syncs it and the directory, then deletes the older
// segments in sequence order. A failed removal keeps that segment and
// every later one for the next compaction: a tombstone lies in the same
// or a later segment than its put, so what is left never resurrects a
// surrendered record.
func (v *LogVault) compactShard(sh *logShard) error {
	ids := make([]uint64, 0, len(v.idx))
	for id, lr := range v.idx {
		if lr.shard == sh.id {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	old := make([]uint64, 0, len(sh.segs))
	for q := range sh.segs {
		old = append(old, q)
	}
	slices.Sort(old)

	if err := v.newSegment(sh, sh.seq+1); err != nil {
		return err
	}
	marker := binary.BigEndian.AppendUint64(nil, v.nextID)
	if _, err := sh.append(frameNextID, marker); err != nil {
		return err
	}
	live := int64(framelog.HeaderSize + len(marker))
	for _, id := range ids {
		lr := v.idx[id]
		payload, err := v.readPayload(lr)
		if err != nil {
			return err
		}
		off, err := sh.append(framePut, payload)
		if err != nil {
			return err
		}
		lr.seg, lr.off = sh.seq, off
		live += framelog.HeaderSize + lr.size
	}
	if err := sh.active().Sync(); err != nil {
		return err
	}
	if err := framelog.SyncDir(v.fsys, v.dir); err != nil {
		return err
	}
	sh.live, sh.dead = live, 0
	v.compactions++
	for _, q := range old {
		if err := sh.segs[q].Remove(); err != nil {
			return fmt.Errorf("vault: removing compacted segment: %w", err)
		}
		delete(sh.segs, q)
	}
	return nil
}

// Compact synchronously compacts every shard, regardless of dead-byte
// ratios — the explicit form of the rotation-time trigger.
func (v *LogVault) Compact() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.closed {
		return ErrClosed
	}
	for _, sh := range v.shards {
		if err := v.compactShard(sh); err != nil {
			return err
		}
	}
	return nil
}

// readPayload reads lr's sealed record back from its segment.
func (v *LogVault) readPayload(lr *logRecord) ([]byte, error) {
	payload := make([]byte, lr.size)
	if err := v.shards[lr.shard].segs[lr.seg].ReadAt(payload, lr.off); err != nil {
		return nil, fmt.Errorf("vault: segment read: %w", err)
	}
	return payload, nil
}

// Get decrypts record id, reading the sealed payload back from its
// segment.
func (v *LogVault) Get(id uint64) ([]byte, *Record, error) {
	v.mu.RLock()
	if v.closed {
		v.mu.RUnlock()
		return nil, nil, ErrClosed
	}
	aead := v.aead
	lr, ok := v.idx[id]
	if !ok {
		v.mu.RUnlock()
		return nil, nil, ErrNotFound
	}
	payload, err := v.readPayload(lr)
	v.mu.RUnlock()
	if err != nil {
		return nil, nil, err
	}
	rec, _, err := decodeRecord(payload)
	if err != nil {
		return nil, nil, err
	}
	pt, err := aead.Open(nil, rec.nonce, rec.ciphertext, aad(id, rec.Domain))
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrBadKey, err)
	}
	return pt, &rec, nil
}

// Len returns the number of live records.
func (v *LogVault) Len() int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return len(v.idx)
}

// Meta returns the clear metadata of every live record in ID order —
// readable after Close, like the in-memory Vault.
func (v *LogVault) Meta() []Record {
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make([]Record, 0, len(v.idx))
	for id := uint64(1); id < v.nextID; id++ {
		if lr, ok := v.idx[id]; ok {
			out = append(out, lr.meta)
		}
	}
	return out
}

// Surrender appends tombstones for every record of domain and drops
// them from the index; the bytes die in place until compaction. Each
// tombstone is its own append, so a failure or a crash part-way leaves
// exactly the records not yet dropped. Unlike the in-memory Vault, a
// closed LogVault cannot append tombstones, so Surrender after Close is
// a no-op returning 0.
func (v *LogVault) Surrender(domain string) int {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.closed {
		return 0
	}
	ids := make([]uint64, 0, 8)
	for id, lr := range v.idx {
		if lr.meta.Domain == domain {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	sh := v.shards[shardOf(domain, len(v.shards))]
	n := 0
	for _, id := range ids {
		lr := v.idx[id]
		tomb := binary.BigEndian.AppendUint64(nil, id)
		if _, err := sh.append(frameTomb, tomb); err != nil {
			break // records already dropped stay dropped; the rest survive
		}
		delete(v.idx, id)
		owner := v.shards[lr.shard]
		owner.live -= framelog.HeaderSize + lr.size
		owner.dead += framelog.HeaderSize + lr.size
		sh.dead += framelog.HeaderSize + int64(len(tomb))
		n++
	}
	return n
}

// Export writes the Store snapshot: identical bytes to the in-memory
// Vault's Export for the same live content. Unlike the in-memory
// backend it needs the segment files, so it fails with ErrClosed after
// Close.
func (v *LogVault) Export(w io.Writer) error {
	v.mu.RLock()
	defer v.mu.RUnlock()
	if v.closed {
		return ErrClosed
	}
	if err := binary.Write(w, binary.BigEndian, uint64(len(v.idx))); err != nil {
		return err
	}
	for id := uint64(1); id < v.nextID; id++ {
		lr, ok := v.idx[id]
		if !ok {
			continue
		}
		payload, err := v.readPayload(lr) // a Put payload is its Export record
		if err != nil {
			return err
		}
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

// RestoreLog rebuilds a log-structured vault in dir from an Export
// stream, preserving IDs, nonces and ciphertext byte-for-byte (records
// are not re-encrypted; a wrong key surfaces at Get time, as with
// Import). dir must not already contain segments.
func RestoreLog(key Key, dir string, opts LogOptions, r io.Reader) (*LogVault, error) {
	if entries, err := os.ReadDir(dir); err == nil {
		for _, e := range entries {
			if _, _, ok := parseSegName(e.Name()); ok {
				return nil, fmt.Errorf("vault: restore target %s already holds segments", dir)
			}
		}
	}
	v, err := OpenLog(key, dir, opts)
	if err != nil {
		return nil, err
	}
	err = decodeExportStream(r, func(rec Record) error {
		v.nextID = max(v.nextID, rec.ID+1)
		return v.appendPut(rec)
	})
	if err != nil {
		v.Close() // a bad stream must not leave the handle open
		return nil, err
	}
	return v, nil
}

// Close syncs every shard's active segment and the directory, drops the
// AEAD and releases the segment handles. Clear metadata (Len, Meta)
// stays readable; data operations fail with ErrClosed. Idempotent.
func (v *LogVault) Close() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.closed {
		return nil
	}
	v.closed = true
	v.aead = nil
	var firstErr error
	note := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}
	for _, sh := range v.shards {
		if l := sh.active(); l != nil {
			note(l.Sync())
		}
		for _, l := range sh.segs {
			note(l.Close())
		}
		sh.segs = nil
	}
	if v.shards != nil {
		note(framelog.SyncDir(v.fsys, v.dir))
	}
	return firstErr
}

// LogStats describes the on-disk state, for tests and ops.
type LogStats struct {
	Segments    int // segment files currently on disk
	Compactions int // compaction passes since open
	LiveBytes   int64
	DeadBytes   int64
}

// Stats reports segment/compaction counters.
func (v *LogVault) Stats() LogStats {
	v.mu.RLock()
	defer v.mu.RUnlock()
	st := LogStats{Compactions: v.compactions}
	for _, sh := range v.shards {
		st.Segments += len(sh.segs)
		st.LiveBytes += sh.live
		st.DeadBytes += sh.dead
	}
	return st
}
