// Package framelog is the one framed, append-only file format under
// the study's stored mail: the vault's segments and the streaming run's
// encrypted spill. A frame is [1-byte type][u32 big-endian payload
// length][payload], the length capped at MaxPayload; a file is an
// optional caller header followed by frames. Appends go to the tracked
// end of the file, so a crash leaves at most one torn frame, at the
// tail: Scan reports the valid prefix, and Truncate cuts the tear away.
package framelog

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
)

const (
	HeaderSize = 5        // a frame's type byte and payload length
	MaxPayload = 64 << 20 // larger lengths are damage, never allocated
)

var (
	// ErrMalformed reports a length-prefixed field cut short or longer
	// than MaxPayload.
	ErrMalformed = errors.New("framelog: malformed field")
	// ErrTorn reports a frame cut short: a crash mid-append, or a file
	// truncated under its reader.
	ErrTorn = errors.New("framelog: torn frame")
)

// AppendHeader appends the header of a frame whose n-byte payload the
// caller appends next.
func AppendHeader(dst []byte, typ byte, n int) []byte {
	return binary.BigEndian.AppendUint32(append(dst, typ), uint32(n))
}

// Append appends one whole frame to dst.
func Append(dst []byte, typ byte, payload []byte) []byte {
	return append(AppendHeader(dst, typ, len(payload)), payload...)
}

// payloadLen reads a frame header's length; ok is false past MaxPayload.
func payloadLen(hdr []byte) (int, bool) {
	n := binary.BigEndian.Uint32(hdr[1:HeaderSize])
	return int(n), n <= MaxPayload
}

// Scan walks the frames at the start of data, handing each one to fn
// with its payload's offset in data. It stops at the first torn frame
// and returns the length of the valid prefix; an error from fn stops
// the scan and is returned with the length scanned before that frame.
func Scan(data []byte, fn func(typ byte, payload []byte, at int) error) (int, error) {
	valid := 0
	for len(data)-valid >= HeaderSize {
		n, ok := payloadLen(data[valid:])
		at := valid + HeaderSize
		if !ok || len(data)-at < n {
			break
		}
		if err := fn(data[valid], data[at:at+n], at); err != nil {
			return valid, err
		}
		valid = at + n
	}
	return valid, nil
}

// AppendField appends b with its u32 length prefix.
func AppendField[T string | []byte](dst []byte, b T) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(b)))
	return append(dst, b...)
}

// CutField splits a length-prefixed field off the front of p.
func CutField(p []byte) (field, rest []byte, err error) {
	if len(p) < 4 {
		return nil, nil, ErrMalformed
	}
	n := binary.BigEndian.Uint32(p)
	if n > MaxPayload || uint32(len(p)-4) < n {
		return nil, nil, ErrMalformed
	}
	return p[4 : 4+n], p[4+n:], nil
}

// Reader reads the frames of a stream one at a time, holding only the
// current one.
type Reader struct {
	r   io.Reader
	buf []byte
}

// Next returns the next frame. Its payload is valid until the following
// call. At a clean end of stream Next returns io.EOF, at a torn frame
// ErrTorn.
func (fr *Reader) Next() (typ byte, payload []byte, err error) {
	fr.buf = append(fr.buf[:0], make([]byte, HeaderSize)...)
	if _, err := io.ReadFull(fr.r, fr.buf); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, ErrTorn
	}
	n, ok := payloadLen(fr.buf)
	if !ok {
		return 0, nil, ErrTorn
	}
	fr.buf = append(fr.buf, make([]byte, n)...)
	if _, err := io.ReadFull(fr.r, fr.buf[HeaderSize:]); err != nil {
		return 0, nil, ErrTorn
	}
	return fr.buf[0], fr.buf[HeaderSize:], nil
}

// FS is the set of file operations a Log performs. OS is the real file
// system; a test substitutes one whose operations fail or tear.
type FS interface {
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	Remove(name string) error
}

// File is an open file as a Log uses it.
type File interface {
	io.ReaderAt
	io.WriterAt
	Truncate(size int64) error
	Sync() error
	Close() error
}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Remove(name string) error { return os.Remove(name) }

// OS is the real file system.
var OS FS = osFS{}

// SyncDir flushes dir's entries, so files created in or removed from it
// survive power loss.
func SyncDir(fsys FS, dir string) error {
	d, err := fsys.OpenFile(dir, os.O_RDONLY, 0)
	if err != nil {
		return err
	}
	defer d.Close() // opened only to sync
	return d.Sync()
}

// Log is one append-only file. Appends land at its tracked size; a
// failed append is cut back off, so the next append never lands after
// stray bytes.
type Log struct {
	fs   FS
	path string
	f    File // nil once closed
	size int64
	err  error // sticky: a failed append that could not be cut back off
}

// Create creates path, which must not exist, and writes head to it. On
// failure no file is left behind, unless removing it failed too.
func Create(fsys FS, path string, head []byte) (*Log, error) {
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o600)
	if err != nil {
		return nil, err
	}
	l := &Log{fs: fsys, path: path, f: f}
	if len(head) > 0 {
		if _, err := l.Append(head); err != nil {
			_ = l.Remove() // the write error is the one to report
			return nil, err
		}
	}
	return l, nil
}

// Open opens the existing log at path for reading and appending, and
// returns its contents.
func Open(fsys FS, path string) (*Log, []byte, error) {
	f, err := fsys.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, nil, err
	}
	data, err := io.ReadAll(io.NewSectionReader(f, 0, 1<<62))
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return &Log{fs: fsys, path: path, f: f, size: int64(len(data))}, data, nil
}

// Size is the log's tracked length in bytes.
func (l *Log) Size() int64 { return l.size }

// Append writes b at the end of the log and returns the offset it
// starts at. If the write fails, the log is truncated back to its
// previous size; if that fails too, the log refuses further appends.
func (l *Log) Append(b []byte) (int64, error) {
	if l.err != nil {
		return 0, l.err
	}
	at := l.size
	if _, err := l.f.WriteAt(b, at); err != nil {
		if terr := l.f.Truncate(at); terr != nil {
			l.err = fmt.Errorf("framelog: append after a failed cut-back: %w", terr)
		}
		return 0, fmt.Errorf("framelog: append: %w", err)
	}
	l.size += int64(len(b))
	return at, nil
}

// ReadAt fills p from offset off.
func (l *Log) ReadAt(p []byte, off int64) error {
	_, err := l.f.ReadAt(p, off)
	return err
}

// Frames reads the log's frames in append order.
func (l *Log) Frames() *Reader {
	return &Reader{r: bufio.NewReader(io.NewSectionReader(l.f, 0, l.size))}
}

// Truncate cuts the log to n bytes — a torn tail found by Scan.
func (l *Log) Truncate(n int64) error {
	err := l.f.Truncate(n)
	if err == nil {
		l.size = n
	}
	return err
}

// Sync flushes the log to stable storage. A log that refuses appends
// reports why instead, so it is never finished as a whole segment.
func (l *Log) Sync() error {
	if l.err != nil {
		return l.err
	}
	return l.f.Sync()
}

// Close releases the file. It is idempotent.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// Remove closes the log and deletes its file. A failed Remove may be
// retried.
func (l *Log) Remove() error {
	l.Close() // the file goes either way; only its removal can fail
	return l.fs.Remove(l.path)
}
