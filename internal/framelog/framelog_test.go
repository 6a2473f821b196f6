package framelog

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// FuzzFrameScan feeds arbitrary bytes to the frame scan: it must never
// panic, the valid length it reports must lie within the input, and
// re-encoding the frames it parsed must reproduce exactly the valid
// prefix. The stream Reader must parse the same frames from the same
// bytes and end on io.EOF at a clean end, ErrTorn at a torn one.
func FuzzFrameScan(f *testing.F) {
	f.Add([]byte{})
	f.Add(Append(Append(nil, 'P', []byte("payload")), 'T', make([]byte, 8)))
	f.Add(append(Append(nil, 'N', []byte{0, 0, 0, 0, 0, 0, 0, 9}), 'P', 0, 0, 1, 0, 'x')) // torn tail
	f.Add([]byte{'P', 0xff, 0xff, 0xff, 0xff, 0})                                         // length past MaxPayload
	f.Add([]byte{'S', 0, 0})                                                              // torn header
	f.Fuzz(func(t *testing.T, data []byte) {
		var scanned []byte
		valid, err := Scan(data, func(typ byte, payload []byte, at int) error {
			if at < HeaderSize || at+len(payload) > len(data) || !bytes.Equal(data[at:at+len(payload)], payload) {
				t.Fatalf("payload offset %d does not locate the %d-byte payload", at, len(payload))
			}
			scanned = Append(scanned, typ, payload)
			return nil
		})
		if err != nil {
			t.Fatalf("Scan: %v", err)
		}
		if valid < 0 || valid > len(data) {
			t.Fatalf("valid length %d outside the %d-byte input", valid, len(data))
		}
		if !bytes.Equal(scanned, data[:valid]) {
			t.Fatalf("re-encoded frames (%d bytes) differ from the %d-byte valid prefix", len(scanned), valid)
		}

		var read []byte
		r := &Reader{r: bytes.NewReader(data)}
		for {
			typ, payload, err := r.Next()
			if err != nil {
				want := ErrTorn
				if valid == len(data) {
					want = io.EOF
				}
				if !errors.Is(err, want) {
					t.Fatalf("Reader ended with %v, want %v (valid %d of %d)", err, want, valid, len(data))
				}
				break
			}
			read = Append(read, typ, payload)
		}
		if !bytes.Equal(read, scanned) {
			t.Fatalf("Reader parsed %d bytes of frames, Scan %d", len(read), len(scanned))
		}
	})
}
