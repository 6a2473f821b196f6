package core

import (
	"bufio"
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/mailmsg"
	"repro/internal/spamfilter"
)

// pendEmail is one scheduled typo-candidate email waiting for its
// landing day, carrying the metadata the materialized path keeps in
// side maps (typoMeta, contaminant) — a spilled email loses pointer
// identity, so the metadata must travel with it. Once the email has
// been decided as a layer 1–4 survivor it also carries that verdict
// and its Layer 5 keys into the survivor log.
type pendEmail struct {
	e           *spamfilter.Email
	di          int // index into Study.Domains
	contaminant bool
	verdict     spamfilter.Verdict
	keys        spamfilter.FreqKeys
}

// pendDay is one landing day's queue: an in-memory tail plus an
// optional spill segment holding earlier arrivals. Drain order is
// file frames first, then the tail — exactly append order.
type pendDay struct {
	mem      []pendEmail
	memBytes int64
	f        *os.File
	size     int64 // bytes written to f
	frames   int
}

// pendQueue holds scheduled future-day traffic for the streaming run.
// When the resident estimate crosses the budget, whole days are spilled
// to segment files — encrypted with an ephemeral in-process key, so the
// §4.1 rule that no raw collected content rests on disk holds for the
// working set too: after a crash the spill segments are noise, and a
// clean run removes them as each day drains.
//
// pendQueue shares the vault lifecycle protocol: add/take/drop/spill
// only while open, close idempotent — vaultstate tracks it alongside
// the vault.Store implementations.
type pendQueue struct {
	dir     string // "" disables spilling
	prefix  string
	budget  int64
	fc      *frameCipher
	days    map[int]*pendDay
	mem     int64
	spills  int // spill events (for tests/ops)
	spilled int // emails currently on disk
}

// newPendQueue builds a queue spilling into dir (after the budget) or a
// purely in-memory one when dir is empty.
func newPendQueue(dir, prefix string, budget int64) (*pendQueue, error) {
	q := &pendQueue{dir: dir, prefix: prefix, budget: budget, days: make(map[int]*pendDay)}
	if dir == "" {
		return q, nil
	}
	if budget <= 0 {
		q.budget = 64 << 20
	}
	var err error
	if q.fc, err = newFrameCipher(dir); err != nil {
		return nil, err
	}
	return q, nil
}

// frameCipher seals pendEmails into spill frames, [nonce][len][ciphertext],
// and opens them again. The AES-256-GCM key is drawn fresh from the OS
// and never leaves the process; nonces count up, so no two frames under
// one key share one.
type frameCipher struct {
	aead  cipher.AEAD
	next  uint64
	nonce []byte // scratch: the nonce being sealed with
	plain []byte // scratch: the frame being sealed, in the clear
}

// newFrameCipher creates the spill directory and a cipher for it.
func newFrameCipher(dir string) (*frameCipher, error) {
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, fmt.Errorf("core: spill dir: %w", err)
	}
	var key [32]byte
	if _, err := rand.Read(key[:]); err != nil {
		return nil, fmt.Errorf("core: spill key: %w", err)
	}
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, fmt.Errorf("core: spill cipher: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("core: spill gcm: %w", err)
	}
	return &frameCipher{aead: aead, nonce: make([]byte, aead.NonceSize())}, nil
}

// seal appends pe's frame to dst.
func (c *frameCipher) seal(dst []byte, pe *pendEmail) []byte {
	c.plain = encodePendEmail(c.plain[:0], pe)
	binary.BigEndian.PutUint64(c.nonce[len(c.nonce)-8:], c.next)
	c.next++
	dst = append(dst, c.nonce...)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(c.plain)+c.aead.Overhead()))
	return c.aead.Seal(dst, c.nonce, c.plain, nil)
}

// frameReader opens the frames of one spill file in order, holding one
// frame at a time.
type frameReader struct {
	c    *frameCipher
	r    *bufio.Reader
	left int64 // bytes of the file not yet read
	buf  []byte
}

// reader reads the size bytes of f that hold sealed frames.
func (c *frameCipher) reader(f *os.File, size int64) *frameReader {
	return &frameReader{c: c, r: bufio.NewReader(io.NewSectionReader(f, 0, size)), left: size}
}

// errTornFrame reports a frame cut short, by a truncated file or a
// length running past the end.
var errTornFrame = errors.New("core: torn spill frame")

// next opens the next frame.
func (fr *frameReader) next() (pendEmail, error) {
	hdr := int64(fr.c.aead.NonceSize() + 4)
	if fr.left < hdr {
		return pendEmail{}, errTornFrame
	}
	fr.buf = append(fr.buf[:0], make([]byte, hdr)...)
	if _, err := io.ReadFull(fr.r, fr.buf); err != nil {
		return pendEmail{}, errTornFrame
	}
	n := int64(binary.BigEndian.Uint32(fr.buf[hdr-4:]))
	if n > fr.left-hdr {
		return pendEmail{}, errTornFrame
	}
	fr.left -= hdr + n
	fr.buf = append(fr.buf, make([]byte, n)...)
	ct := fr.buf[hdr:]
	if _, err := io.ReadFull(fr.r, ct); err != nil {
		return pendEmail{}, errTornFrame
	}
	plain, err := fr.c.aead.Open(ct[:0], fr.buf[:hdr-4], ct, nil)
	if err != nil {
		return pendEmail{}, fmt.Errorf("core: spill frame: %w", err)
	}
	return decodePendEmail(plain)
}

// estBytes approximates an email's resident footprint for the budget.
func estBytes(e *spamfilter.Email) int64 {
	n := int64(256 + len(e.Msg.Body) + len(e.Msg.HTMLBody))
	for _, a := range e.Msg.Attachments {
		n += int64(len(a.Data) + len(a.Filename))
	}
	return n
}

// add enqueues one scheduled email, spilling if over budget.
func (q *pendQueue) add(day int, pe pendEmail) error {
	d := q.days[day]
	if d == nil {
		d = &pendDay{}
		q.days[day] = d
	}
	sz := estBytes(pe.e)
	d.mem = append(d.mem, pe)
	d.memBytes += sz
	q.mem += sz
	if q.fc != nil && q.mem > q.budget {
		return q.spill()
	}
	return nil
}

// spill writes the heaviest days out until the resident estimate is
// halved, so one breach doesn't cause a spill per subsequent add.
func (q *pendQueue) spill() error {
	type cand struct {
		day int
		sz  int64
	}
	cands := make([]cand, 0, len(q.days))
	for day, d := range q.days {
		if d.memBytes > 0 {
			cands = append(cands, cand{day, d.memBytes})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].sz != cands[j].sz {
			return cands[i].sz > cands[j].sz
		}
		return cands[i].day > cands[j].day
	})
	for _, c := range cands {
		if q.mem <= q.budget/2 {
			break
		}
		if err := q.spillDay(c.day); err != nil {
			return err
		}
	}
	q.spills++
	return nil
}

func (q *pendQueue) path(day int) string {
	return filepath.Join(q.dir, fmt.Sprintf("%s-day%05d.spill", q.prefix, day))
}

// spillDay seals the day's in-memory tail into its segment file.
func (q *pendQueue) spillDay(day int) error {
	d := q.days[day]
	if d.f == nil {
		f, err := os.OpenFile(q.path(day), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o600)
		if err != nil {
			return fmt.Errorf("core: spill segment: %w", err)
		}
		d.f = f
	}
	var buf []byte
	for i := range d.mem {
		buf = q.fc.seal(buf, &d.mem[i])
	}
	if _, err := d.f.WriteAt(buf, d.size); err != nil {
		return fmt.Errorf("core: spill write: %w", err)
	}
	d.size += int64(len(buf))
	d.frames += len(d.mem)
	q.spilled += len(d.mem)
	q.mem -= d.memBytes
	d.mem, d.memBytes = nil, 0
	return nil
}

// take removes and returns the day's queue in append order: spilled
// frames first (they were appended first), then the resident tail. The
// spill segment is deleted once read back.
func (q *pendQueue) take(day int) ([]pendEmail, error) {
	d := q.days[day]
	if d == nil {
		return nil, nil
	}
	out := make([]pendEmail, 0, d.frames+len(d.mem))
	if d.f != nil {
		fr := q.fc.reader(d.f, d.size)
		for i := 0; i < d.frames; i++ {
			pe, err := fr.next()
			if err != nil {
				return nil, err
			}
			out = append(out, pe)
		}
		q.spilled -= d.frames
		q.removeFile(day, d)
	}
	out = append(out, d.mem...)
	q.mem -= d.memBytes
	delete(q.days, day)
	return out, nil
}

// drop discards a day (outage: the downed infrastructure recorded
// nothing), removing any spill segment unread.
func (q *pendQueue) drop(day int) {
	d := q.days[day]
	if d == nil {
		return
	}
	if d.f != nil {
		q.spilled -= d.frames
		q.removeFile(day, d)
	}
	q.mem -= d.memBytes
	delete(q.days, day)
}

func (q *pendQueue) removeFile(day int, d *pendDay) {
	d.f.Close()
	os.Remove(q.path(day))
	d.f, d.size, d.frames = nil, 0, 0
}

// close releases any remaining spill segments (normal runs drain every
// day, so this only matters on early error returns).
func (q *pendQueue) close() {
	for day, d := range q.days {
		if d.f != nil {
			q.removeFile(day, d)
		}
	}
	q.days = nil
}

// The pendEmail wire form: queue metadata, the survivor verdict and
// Layer 5 keys (zero while the email is still pending), the envelope
// fields, then the mailmsg wire codec for the message itself.
const pendFixedBytes = 4 + 2 + 4 + 3*8

func encodePendEmail(dst []byte, pe *pendEmail) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(pe.di))
	dst = append(dst, boolByte(pe.contaminant), boolByte(pe.e.SMTPTypoDomain))
	dst = binary.BigEndian.AppendUint32(dst, uint32(pe.verdict))
	dst = binary.BigEndian.AppendUint64(dst, uint64(pe.keys.Rcpt))
	dst = binary.BigEndian.AppendUint64(dst, uint64(pe.keys.Sender))
	dst = binary.BigEndian.AppendUint64(dst, uint64(pe.keys.Content))
	dst = appendSpillString(dst, pe.e.ServerDomain)
	dst = appendSpillString(dst, pe.e.RcptAddr)
	dst = appendSpillString(dst, pe.e.SenderAddr)
	dst = binary.BigEndian.AppendUint64(dst, uint64(pe.e.Received.UnixNano()))
	return pe.e.Msg.AppendWire(dst)
}

func decodePendEmail(b []byte) (pendEmail, error) {
	var pe pendEmail
	bad := fmt.Errorf("core: malformed spill frame")
	if len(b) < pendFixedBytes {
		return pe, bad
	}
	pe.di = int(binary.BigEndian.Uint32(b))
	e := &spamfilter.Email{}
	pe.contaminant, pe.e = b[4] != 0, e
	e.SMTPTypoDomain = b[5] != 0
	pe.verdict = spamfilter.Verdict(binary.BigEndian.Uint32(b[6:]))
	pe.keys.Rcpt = spamfilter.FreqKey(binary.BigEndian.Uint64(b[10:]))
	pe.keys.Sender = spamfilter.FreqKey(binary.BigEndian.Uint64(b[18:]))
	pe.keys.Content = spamfilter.FreqKey(binary.BigEndian.Uint64(b[26:]))
	b = b[pendFixedBytes:]
	var err error
	if e.ServerDomain, b, err = cutSpillString(b); err != nil {
		return pe, err
	}
	if e.RcptAddr, b, err = cutSpillString(b); err != nil {
		return pe, err
	}
	if e.SenderAddr, b, err = cutSpillString(b); err != nil {
		return pe, err
	}
	if len(b) < 8 {
		return pe, bad
	}
	e.Received = timeFromUnixNano(int64(binary.BigEndian.Uint64(b)))
	msg, rest, err := mailmsg.DecodeWire(b[8:])
	if err != nil {
		return pe, err
	}
	if len(rest) != 0 {
		return pe, bad
	}
	e.Msg = msg
	return pe, nil
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

func appendSpillString(dst []byte, s string) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

func cutSpillString(b []byte) (string, []byte, error) {
	if len(b) < 4 {
		return "", nil, fmt.Errorf("core: malformed spill frame")
	}
	n := int(binary.BigEndian.Uint32(b))
	if n > 64<<20 || len(b) < 4+n {
		return "", nil, fmt.Errorf("core: malformed spill frame")
	}
	return string(b[4 : 4+n]), b[4+n:], nil
}

// survivorLog is the streaming run's FIFO of layer 1–4 survivors, each
// carrying its verdict and Layer 5 keys, held from its Decide until the
// corpus-wide frequency tables are complete. With a spill directory,
// seal moves the resident entries to the end of one append-only file,
// framed and encrypted like the pending queue's segments, and drain
// reads the file back one frame at a time ahead of the resident tail;
// without one, every entry stays resident.
//
// survivorLog shares the vault lifecycle protocol: add/seal/drain only
// while open, close idempotent.
type survivorLog struct {
	path   string
	fc     *frameCipher // nil keeps every entry resident
	f      *os.File
	size   int64 // bytes sealed into f
	frames int
	mem    []pendEmail
	buf    []byte // scratch: one seal's frames
}

// newSurvivorLog builds a log sealing into dir/survivors.spill, or a
// purely in-memory one when dir is empty.
func newSurvivorLog(dir string) (*survivorLog, error) {
	l := &survivorLog{}
	if dir == "" {
		return l, nil
	}
	var err error
	if l.fc, err = newFrameCipher(dir); err != nil {
		return nil, err
	}
	l.path = filepath.Join(dir, "survivors.spill")
	return l, nil
}

// add appends one survivor to the resident tail.
func (l *survivorLog) add(pe pendEmail) { l.mem = append(l.mem, pe) }

// seal appends the resident tail to the log file, when there is one.
func (l *survivorLog) seal() error {
	if l.fc == nil || len(l.mem) == 0 {
		return nil
	}
	if l.f == nil {
		f, err := os.OpenFile(l.path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o600)
		if err != nil {
			return fmt.Errorf("core: survivor log: %w", err)
		}
		l.f = f
	}
	buf := l.buf[:0]
	for i := range l.mem {
		buf = l.fc.seal(buf, &l.mem[i])
	}
	if _, err := l.f.WriteAt(buf, l.size); err != nil {
		return fmt.Errorf("core: survivor log write: %w", err)
	}
	l.size += int64(len(buf))
	l.frames += len(l.mem)
	clear(l.mem) // the sealed emails must not stay reachable
	l.mem, l.buf = l.mem[:0], buf[:0]
	return nil
}

// drain hands every entry to fn in the order it was added, then closes
// the log.
func (l *survivorLog) drain(fn func(pe *pendEmail) error) error {
	if l.f != nil {
		fr := l.fc.reader(l.f, l.size)
		for i := 0; i < l.frames; i++ {
			pe, err := fr.next()
			if err != nil {
				return err
			}
			if err := fn(&pe); err != nil {
				return err
			}
		}
	}
	for i := range l.mem {
		if err := fn(&l.mem[i]); err != nil {
			return err
		}
	}
	l.close()
	return nil
}

// close removes the log file and drops the resident entries; after an
// early error return it releases whatever the log still holds.
func (l *survivorLog) close() {
	if l.f != nil {
		l.f.Close()
		os.Remove(l.path)
		l.f, l.size, l.frames = nil, 0, 0
	}
	l.mem = nil
}
