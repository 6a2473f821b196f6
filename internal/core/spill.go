package core

import (
	"cmp"
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/framelog"
	"repro/internal/mailmsg"
	"repro/internal/spamfilter"
)

// pendEmail is one scheduled typo-candidate email waiting for its
// landing day, with the metadata that must travel with it once a spill
// loses its pointer identity; a layer 1–4 survivor also carries its
// verdict and Layer 5 keys into the survivor log.
type pendEmail struct {
	e           *spamfilter.Email
	di          int // index into Study.Domains
	contaminant bool
	verdict     spamfilter.Verdict
	keys        spamfilter.FreqKeys
}

// pendFIFO is a first-in first-out queue of pendEmails: a resident
// tail plus, once sealed, an append-only file in its spill directory
// holding earlier entries. Drain order is file frames first, then the
// tail — exactly append order. Each landing day of the pending queue is
// one, and so is the survivor log: the streaming run's layer 1–4
// survivors, each carrying its verdict and Layer 5 keys, held from
// their Decide until the corpus-wide frequency tables are complete.
//
// pendFIFO shares the vault lifecycle protocol: add/seal/drain only
// while open, close idempotent.
type pendFIFO struct {
	sp       *spillDir // nil keeps every entry resident
	name     string
	log      *framelog.Log // nil until the first seal
	frames   int
	mem      []pendEmail
	memBytes int64 // estimated resident footprint of mem
}

// add appends pe to the resident tail and returns its estimated size.
func (f *pendFIFO) add(pe pendEmail) int64 {
	sz := estBytes(pe.e)
	f.mem = append(f.mem, pe)
	f.memBytes += sz
	return sz
}

// seal moves the resident tail to the end of the file, if f spills.
func (f *pendFIFO) seal() error {
	if f.sp == nil || len(f.mem) == 0 {
		return nil
	}
	if f.log == nil {
		l, err := framelog.Create(f.sp.fsys, filepath.Join(f.sp.dir, f.name), nil)
		if err != nil {
			return fmt.Errorf("core: spill: %w", err)
		}
		f.log = l
	}
	if _, err := f.log.Append(f.sp.seal(f.mem)); err != nil {
		return fmt.Errorf("core: spill write: %w", err)
	}
	f.frames += len(f.mem)
	clear(f.mem) // the sealed emails must not stay reachable
	f.mem, f.memBytes = f.mem[:0], 0
	return nil
}

// drain hands every entry to fn in append order, then closes f.
func (f *pendFIFO) drain(fn func(pe *pendEmail) error) error {
	defer f.close()
	if f.log != nil {
		fr := f.log.Frames()
		for i := 0; i < f.frames; i++ {
			typ, payload, err := fr.Next()
			if err != nil {
				return fmt.Errorf("core: spill read: %w", err)
			}
			pe, err := f.sp.open(typ, payload)
			if err != nil {
				return err
			}
			if err := fn(&pe); err != nil {
				return err
			}
		}
	}
	for i := range f.mem {
		if err := fn(&f.mem[i]); err != nil {
			return err
		}
	}
	return nil
}

// close removes the file and drops the resident entries. The spill is
// scratch: a file that will not go is left behind, not reported.
func (f *pendFIFO) close() {
	if f.log != nil {
		_ = f.log.Remove()
		f.log, f.frames = nil, 0
	}
	f.mem, f.memBytes = nil, 0
}

// pendQueue holds scheduled future-day traffic for the streaming run,
// one pendFIFO per landing day. When the resident estimate crosses the
// budget, whole days are sealed to spill files under an ephemeral
// in-process key, so the §4.1 rule that no raw collected content rests
// on disk holds for the working set too: after a crash the spill files
// are noise, and a clean run removes them as each day drains.
//
// pendQueue shares the vault lifecycle protocol: add/take/drop/spill
// only while open, close idempotent.
type pendQueue struct {
	sp     *spillDir // nil disables spilling
	budget int64
	days   map[int]*pendFIFO
	mem    int64
}

// newPendQueue builds a queue spilling into sp past the budget (default
// 64 MiB), or a purely in-memory one when sp is nil.
func newPendQueue(sp *spillDir, budget int64) *pendQueue {
	if budget <= 0 {
		budget = 64 << 20
	}
	return &pendQueue{sp: sp, budget: budget, days: make(map[int]*pendFIFO)}
}

// spillFrame is the framelog type of a sealed pendEmail; its payload
// is nonce‖ciphertext.
const spillFrame = 'S'

var errBadSpill = errors.New("core: malformed spill frame")

// spillDir is a directory of spill files and the cipher that seals
// their frames. The AES-256-GCM key is drawn fresh from the OS and
// never leaves the process; nonces count up, so no two frames under one
// key share one.
type spillDir struct {
	fsys  framelog.FS
	dir   string
	aead  cipher.AEAD
	next  uint64
	nonce []byte // scratch: the nonce being sealed with
	plain []byte // scratch: the entry being sealed, in the clear
	out   []byte // scratch: one seal's frames
}

// newSpillDir creates dir and a cipher for it; with dir empty it
// returns nil, which spills nothing.
func newSpillDir(fsys framelog.FS, dir string) (*spillDir, error) {
	if dir == "" {
		return nil, nil
	}
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
	return &spillDir{fsys: fsys, dir: dir, aead: aead, nonce: make([]byte, aead.NonceSize())}, nil
}

// seal frames and encrypts pes, one frame each; the bytes are valid
// until the next call.
func (c *spillDir) seal(pes []pendEmail) []byte {
	c.out = c.out[:0]
	for i := range pes {
		c.plain = encodePendEmail(c.plain[:0], &pes[i])
		binary.BigEndian.PutUint64(c.nonce[len(c.nonce)-8:], c.next)
		c.next++
		c.out = framelog.AppendHeader(c.out, spillFrame, len(c.nonce)+len(c.plain)+c.aead.Overhead())
		c.out = append(c.out, c.nonce...)
		c.out = c.aead.Seal(c.out, c.nonce, c.plain, nil)
	}
	return c.out
}

// open decrypts one spill frame's payload in place and decodes it.
func (c *spillDir) open(typ byte, payload []byte) (pendEmail, error) {
	ns := c.aead.NonceSize()
	if typ != spillFrame || len(payload) < ns {
		return pendEmail{}, errBadSpill
	}
	plain, err := c.aead.Open(payload[ns:ns], payload[:ns], payload[ns:], nil)
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
		d = &pendFIFO{sp: q.sp, name: fmt.Sprintf("pending-day%05d.spill", day)}
		q.days[day] = d
	}
	q.mem += d.add(pe)
	if q.sp != nil && q.mem > q.budget {
		return q.spill()
	}
	return nil
}

// spill seals the heaviest days until the resident estimate is halved,
// so one breach doesn't cause a spill per subsequent add.
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
	slices.SortFunc(cands, func(a, b cand) int { // heaviest first, later day on a tie
		return cmp.Or(cmp.Compare(b.sz, a.sz), cmp.Compare(b.day, a.day))
	})
	for _, c := range cands {
		if q.mem <= q.budget/2 {
			break
		}
		if err := q.days[c.day].seal(); err != nil {
			return err
		}
		q.mem -= c.sz
	}
	return nil
}

// take removes and returns the day's queue in append order; its spill
// file is deleted once read back.
func (q *pendQueue) take(day int) ([]pendEmail, error) {
	d := q.days[day]
	if d == nil {
		return nil, nil
	}
	out := make([]pendEmail, 0, d.frames+len(d.mem))
	q.mem -= d.memBytes
	delete(q.days, day)
	err := d.drain(func(pe *pendEmail) error {
		out = append(out, *pe)
		return nil
	})
	return out, err
}

// drop discards a day (outage: the downed infrastructure recorded
// nothing), removing any spill file unread.
func (q *pendQueue) drop(day int) {
	if d := q.days[day]; d != nil {
		q.mem -= d.memBytes
		d.close()
		delete(q.days, day)
	}
}

// close releases any remaining spill files (normal runs drain every
// day, so this only matters on early error returns).
func (q *pendQueue) close() {
	for _, d := range q.days {
		d.close()
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
	dst = framelog.AppendField(dst, pe.e.ServerDomain)
	dst = framelog.AppendField(dst, pe.e.RcptAddr)
	dst = framelog.AppendField(dst, pe.e.SenderAddr)
	dst = binary.BigEndian.AppendUint64(dst, uint64(pe.e.Received.UnixNano()))
	return pe.e.Msg.AppendWire(dst)
}

func decodePendEmail(b []byte) (pendEmail, error) {
	var pe pendEmail
	if len(b) < pendFixedBytes {
		return pe, errBadSpill
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
	for _, field := range []*string{&e.ServerDomain, &e.RcptAddr, &e.SenderAddr} {
		var v []byte
		var err error
		if v, b, err = framelog.CutField(b); err != nil {
			return pe, errBadSpill
		}
		*field = string(v)
	}
	if len(b) < 8 {
		return pe, errBadSpill
	}
	e.Received = time.Unix(0, int64(binary.BigEndian.Uint64(b))).UTC()
	msg, rest, err := mailmsg.DecodeWire(b[8:])
	if err != nil {
		return pe, err
	}
	if len(rest) != 0 {
		return pe, errBadSpill
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
