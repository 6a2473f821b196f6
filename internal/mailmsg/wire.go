package mailmsg

import (
	"encoding/binary"
	"errors"
)

// The spill codec: a deterministic binary encoding of a Message that
// round-trips EXACTLY — header insertion order, repeated values, both
// bodies and attachment bytes. Bytes()/Parse cannot serve here: Bytes
// owns the MIME structure and Parse recovers header order only up to a
// sort, so a Bytes→Parse round trip is not the identity. The streaming
// study spills pending scheduled email to disk and regenerates the same
// byte-for-byte classifier input when the landing day drains, so the
// codec must be lossless, not merely faithful-enough.
//
// Layout (all integers big-endian, strings/bytes u32-length-prefixed):
//
//	u32 headerKeyCount
//	  per key: str key, u32 valueCount, per value: str value
//	str Body
//	str HTMLBody
//	u32 attachmentCount
//	  per attachment: str Filename, str ContentType, bytes Data

// ErrWire reports a malformed or truncated wire-encoded message.
var ErrWire = errors.New("mailmsg: malformed wire encoding")

// maxWireField caps one decoded field, mirroring the vault import cap:
// a corrupt length prefix must not become a multi-GB allocation.
const maxWireField = 64 << 20

// AppendWire appends the wire encoding of m to dst and returns the
// extended slice.
func (m *Message) AppendWire(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(m.header)))
	for _, f := range m.header {
		dst = appendWireString(dst, f.key)
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(f.vals)))
		for _, v := range f.vals {
			dst = appendWireString(dst, v)
		}
	}
	dst = appendWireString(dst, m.Body)
	dst = appendWireString(dst, m.HTMLBody)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(m.Attachments)))
	for _, a := range m.Attachments {
		dst = appendWireString(dst, a.Filename)
		dst = appendWireString(dst, a.ContentType)
		dst = appendWireString(dst, string(a.Data))
	}
	return dst
}

// DecodeWire decodes one wire-encoded message from the front of b and
// returns it with the unconsumed remainder.
func DecodeWire(b []byte) (*Message, []byte, error) {
	m := New()
	nkeys, b, err := decodeWireCount(b)
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < nkeys; i++ {
		var key string
		if key, b, err = decodeWireString(b); err != nil {
			return nil, nil, err
		}
		var nvals int
		if nvals, b, err = decodeWireCount(b); err != nil {
			return nil, nil, err
		}
		for j := 0; j < nvals; j++ {
			var v string
			if v, b, err = decodeWireString(b); err != nil {
				return nil, nil, err
			}
			m.AddHeader(key, v)
		}
	}
	if m.Body, b, err = decodeWireString(b); err != nil {
		return nil, nil, err
	}
	if m.HTMLBody, b, err = decodeWireString(b); err != nil {
		return nil, nil, err
	}
	natt, b, err := decodeWireCount(b)
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < natt; i++ {
		var a Attachment
		if a.Filename, b, err = decodeWireString(b); err != nil {
			return nil, nil, err
		}
		if a.ContentType, b, err = decodeWireString(b); err != nil {
			return nil, nil, err
		}
		var data string
		if data, b, err = decodeWireString(b); err != nil {
			return nil, nil, err
		}
		a.Data = []byte(data)
		m.Attachments = append(m.Attachments, a)
	}
	return m, b, nil
}

func appendWireString(dst []byte, s string) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

func decodeWireCount(b []byte) (int, []byte, error) {
	if len(b) < 4 {
		return 0, nil, ErrWire
	}
	n := binary.BigEndian.Uint32(b)
	if n > maxWireField {
		return 0, nil, ErrWire
	}
	return int(n), b[4:], nil
}

func decodeWireString(b []byte) (string, []byte, error) {
	n, b, err := decodeWireCount(b)
	if err != nil {
		return "", nil, err
	}
	if len(b) < n {
		return "", nil, ErrWire
	}
	return string(b[:n]), b[n:], nil
}
