// Package vault is the study's hardened storage layer (Section 4.1):
// every collected email part (header, body, attachments) is encrypted
// before it touches disk, with the key kept separately from the server —
// "accidental disclosure of the contents of the server would need to be
// accompanied by a leakage of our encryption key."
//
// Encryption is AES-256-GCM with a per-record random nonce; records are
// integrity-protected, so tampering with stored evidence is detectable.
// Metadata (counts, timestamps, verdicts) stays in clear logs, mirroring
// the paper's "save header information ... and most of the log files"
// split.
package vault

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/framelog"
)

// Errors returned by the vault.
var (
	ErrNotFound  = errors.New("vault: record not found")
	ErrBadKey    = errors.New("vault: wrong key or corrupt record")
	ErrKeyLength = errors.New("vault: key must be 32 bytes")
	ErrClosed    = errors.New("vault: closed")
)

// Key is the removable-storage encryption key.
type Key [32]byte

// DeriveKey stretches a passphrase into a Key. A real deployment would
// use a slow KDF; the derivation is deliberately deterministic so tests
// and reruns agree.
func DeriveKey(passphrase string) Key {
	return sha256.Sum256([]byte("email-typo-vault-v1|" + passphrase))
}

// Record is one stored, encrypted email.
type Record struct {
	ID       uint64
	Domain   string    // which typo domain received it
	Verdict  string    // funnel verdict at storage time
	Received time.Time // clear metadata

	nonce      []byte
	ciphertext []byte
}

// Vault is an append-only encrypted store. It follows the vault
// lifecycle protocol (see Store): after Close the key is unmounted and
// every operation but another Close is a vaultstate finding.
type Vault struct {
	aead cipher.AEAD

	mu      sync.RWMutex
	records map[uint64]*Record
	nextID  uint64
	closed  bool

	// Entropy source; overridable for deterministic tests.
	randRead func([]byte) (int, error)
}

// newAEAD builds the package's AES-256-GCM sealer for key.
func newAEAD(key Key) (cipher.AEAD, error) {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, fmt.Errorf("vault: cipher: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("vault: gcm: %w", err)
	}
	return aead, nil
}

// Open creates a Vault sealed with key.
func Open(key Key) (*Vault, error) {
	aead, err := newAEAD(key)
	if err != nil {
		return nil, err
	}
	return &Vault{
		aead:     aead,
		records:  make(map[uint64]*Record),
		nextID:   1,
		randRead: rand.Read,
	}, nil
}

// Put encrypts and stores plaintext with its clear metadata, returning
// the record ID.
func (v *Vault) Put(domain, verdict string, received time.Time, plaintext []byte) (uint64, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.closed {
		return 0, ErrClosed
	}
	rec := Record{ID: v.nextID, Domain: domain, Verdict: verdict, Received: received}
	if err := rec.seal(v.aead, v.randRead, plaintext); err != nil {
		return 0, err
	}
	v.nextID++
	v.records[rec.ID] = &rec
	return rec.ID, nil
}

// seal encrypts plaintext into rec under a fresh nonce, binding the ID
// and domain into the AEAD additional data so records cannot be swapped
// around undetected.
func (rec *Record) seal(aead cipher.AEAD, randRead func([]byte) (int, error), plaintext []byte) error {
	rec.nonce = make([]byte, aead.NonceSize())
	if _, err := randRead(rec.nonce); err != nil {
		return fmt.Errorf("vault: nonce: %w", err)
	}
	rec.ciphertext = aead.Seal(nil, rec.nonce, plaintext, aad(rec.ID, rec.Domain))
	return nil
}

// Get decrypts record id.
func (v *Vault) Get(id uint64) ([]byte, *Record, error) {
	v.mu.RLock()
	closed, aead := v.closed, v.aead
	rec, ok := v.records[id]
	v.mu.RUnlock()
	if closed {
		return nil, nil, ErrClosed
	}
	if !ok {
		return nil, nil, ErrNotFound
	}
	pt, err := aead.Open(nil, rec.nonce, rec.ciphertext, aad(id, rec.Domain))
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrBadKey, err)
	}
	return pt, rec, nil
}

// Close seals the handle. The paper keeps the encryption key on
// removable storage mounted only while the collector runs (Section 4.1);
// closing models unmounting it: the AEAD becomes unreachable and further
// Put/Get calls fail with ErrClosed. Clear metadata (Len, Meta, Export
// of sealed records) stays readable, mirroring the paper's split between
// encrypted content and analyzable logs. Close is idempotent.
func (v *Vault) Close() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.closed = true
	v.aead = nil
	return nil
}

// Len returns the number of stored records.
func (v *Vault) Len() int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return len(v.records)
}

// Meta returns the clear metadata of every record, in ID order — what an
// analyst can see without the key.
func (v *Vault) Meta() []Record {
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make([]Record, 0, len(v.records))
	for id := uint64(1); id < v.nextID; id++ {
		if rec, ok := v.records[id]; ok {
			out = append(out, Record{ID: rec.ID, Domain: rec.Domain, Verdict: rec.Verdict, Received: rec.Received})
		}
	}
	return out
}

// Surrender deletes every record of a domain — the paper's commitment to
// hand over infringing domains (and destroy their data) on request.
func (v *Vault) Surrender(domain string) int {
	v.mu.Lock()
	defer v.mu.Unlock()
	n := 0
	for id, rec := range v.records {
		if rec.Domain == domain {
			delete(v.records, id)
			n++
		}
	}
	return n
}

// Export serializes the encrypted records (never plaintext) to w, for
// off-server backup. Format: count, then per record the clear metadata
// and the sealed payload.
func (v *Vault) Export(w io.Writer) error {
	v.mu.RLock()
	defer v.mu.RUnlock()
	if err := binary.Write(w, binary.BigEndian, uint64(len(v.records))); err != nil {
		return err
	}
	for id := uint64(1); id < v.nextID; id++ {
		rec, ok := v.records[id]
		if !ok {
			continue
		}
		if _, err := w.Write(encodeRecord(rec)); err != nil {
			return err
		}
	}
	return nil
}

// encodeRecord is the one record codec: a record's Export wire form,
// which is also its LogVault segment payload, so the two backends'
// snapshots are byte-identical for the same content.
func encodeRecord(rec *Record) []byte {
	b := binary.BigEndian.AppendUint64(nil, rec.ID)
	b = framelog.AppendField(b, rec.Domain)
	b = framelog.AppendField(b, rec.Verdict)
	b = binary.BigEndian.AppendUint64(b, uint64(rec.Received.UnixNano()))
	b = framelog.AppendField(b, rec.nonce)
	return framelog.AppendField(b, rec.ciphertext)
}

var errMalformedRecord = errors.New("vault: malformed record")

// decodeRecord splits one encodeRecord record off the front of p. Its
// nonce and ciphertext alias p.
func decodeRecord(p []byte) (rec Record, rest []byte, err error) {
	if len(p) < 8 {
		return rec, nil, errMalformedRecord
	}
	rec.ID, p = binary.BigEndian.Uint64(p), p[8:]
	var domain, verdict []byte
	if domain, p, err = framelog.CutField(p); err != nil {
		return rec, nil, errMalformedRecord
	}
	if verdict, p, err = framelog.CutField(p); err != nil || len(p) < 8 {
		return rec, nil, errMalformedRecord
	}
	rec.Domain, rec.Verdict = string(domain), string(verdict)
	rec.Received = time.Unix(0, int64(binary.BigEndian.Uint64(p))).UTC()
	if rec.nonce, p, err = framelog.CutField(p[8:]); err != nil {
		return rec, nil, errMalformedRecord
	}
	if rec.ciphertext, p, err = framelog.CutField(p); err != nil {
		return rec, nil, errMalformedRecord
	}
	return rec, p, nil
}

// Import loads an Export stream into a fresh vault sealed with key.
// Records stay encrypted; a wrong key only surfaces at Get time, exactly
// like the paper's threat model.
func Import(key Key, r io.Reader) (*Vault, error) {
	v, err := Open(key)
	if err != nil {
		return nil, err
	}
	err = decodeExportStream(r, func(rec Record) error {
		v.records[rec.ID] = &rec
		v.nextID = max(v.nextID, rec.ID+1)
		return nil
	})
	if err != nil {
		v.Close() // a truncated or corrupt stream must not leave the handle open
		return nil, err
	}
	return v, nil
}

// decodeExportStream parses an Export stream, invoking emit once per
// record (with nonce and ciphertext populated) — shared by Import and
// the log-structured RestoreLog.
func decodeExportStream(r io.Reader, emit func(rec Record) error) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("vault: import: %w", err)
	}
	if len(data) < 8 {
		return fmt.Errorf("vault: import header: %w", errMalformedRecord)
	}
	count, p := binary.BigEndian.Uint64(data), data[8:]
	for i := uint64(0); i < count; i++ {
		var rec Record
		if rec, p, err = decodeRecord(p); err != nil {
			return fmt.Errorf("vault: import record %d: %w", i, err)
		}
		if err := emit(rec); err != nil {
			return err
		}
	}
	return nil
}

func aad(id uint64, domain string) []byte {
	b := make([]byte, 8+len(domain))
	binary.BigEndian.PutUint64(b, id)
	copy(b[8:], domain)
	return b
}
