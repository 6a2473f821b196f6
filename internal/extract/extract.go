// Package extract is the study's text-extraction module — the stand-in
// for Textract in the pipeline of Figure 2: email bodies and attachments
// go in, plain text comes out, and the output feeds the sensitive-
// information filter.
//
// The real study ran format-specific extractors (and OCR for images) over
// real attachments. Offline we define three self-describing synthetic
// container formats that exercise the same pipeline position:
//
//   - SDOC: a compressed word-processor container (DOCX stand-in);
//   - SPDF: a page/object text container (PDF stand-in);
//   - SIMG: a glyph-bitmap image whose text is recovered by matching
//     glyphs against a built-in font — a miniature OCR.
//
// HTML and plain text are handled natively.
package extract

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
)

// Magic numbers of the synthetic containers.
var (
	magicSDOC = []byte("SDOC\x01")
	magicSPDF = []byte("%SPDF-1.0\n")
	magicSIMG = []byte("SIMG\x01")
)

// Errors returned by extractors.
var (
	ErrUnknownFormat = errors.New("extract: unknown format")
	ErrCorrupt       = errors.New("extract: corrupt container")
)

// Text extracts plain text from data, dispatching on magic bytes first
// and the filename extension second. Plain text passes through.
func Text(filename string, data []byte) (string, error) {
	switch {
	case bytes.HasPrefix(data, magicSDOC):
		return sdocText(data)
	case bytes.HasPrefix(data, magicSPDF):
		return spdfText(data)
	case bytes.HasPrefix(data, magicSIMG):
		return simgText(data)
	}
	ext := ""
	if i := strings.LastIndexByte(filename, '.'); i >= 0 {
		ext = strings.ToLower(filename[i+1:])
	}
	switch ext {
	case "html", "htm":
		return HTMLText(string(data)), nil
	case "txt", "csv", "log", "md", "ics", "xml", "":
		return string(data), nil
	case "docx", "doc", "docm":
		// A real-world extension but not our container: treat the payload
		// as opaque; only magic-matched SDOC extracts.
		return "", fmt.Errorf("%w: document extension without SDOC container", ErrUnknownFormat)
	default:
		return "", fmt.Errorf("%w: unrecognized extension", ErrUnknownFormat)
	}
}

// ---------------------------------------------------------------------
// SDOC: flate-compressed body with a length-checked frame.

// sdocWriter is the one compressor every BuildSDOC call reuses. A
// flate.Writer carries ~1.2 MB of hash tables and buffers at any level,
// against SDOC bodies of a few hundred bytes, so a fresh writer per
// call was most of the call's cost and a large transient on the
// collection run's heap. Reset makes it equivalent to a fresh
// NewWriter, so the container bytes are unchanged.
var sdocWriter struct {
	sync.Mutex
	w *flate.Writer
}

// BuildSDOC packs text into an SDOC container.
func BuildSDOC(text string) []byte {
	var body bytes.Buffer
	sdocWriter.Lock()
	if sdocWriter.w == nil {
		sdocWriter.w, _ = flate.NewWriter(&body, flate.BestSpeed)
	} else {
		sdocWriter.w.Reset(&body)
	}
	io.WriteString(sdocWriter.w, text)
	sdocWriter.w.Close()
	sdocWriter.Unlock()
	out := make([]byte, 0, len(magicSDOC)+8+body.Len())
	out = append(out, magicSDOC...)
	var lenBuf [8]byte
	binary.BigEndian.PutUint64(lenBuf[:], uint64(len(text)))
	out = append(out, lenBuf[:]...)
	return append(out, body.Bytes()...)
}

func sdocText(data []byte) (string, error) {
	rest := data[len(magicSDOC):]
	if len(rest) < 8 {
		return "", fmt.Errorf("%w: SDOC header truncated", ErrCorrupt)
	}
	want := binary.BigEndian.Uint64(rest[:8])
	if want > 64<<20 {
		return "", fmt.Errorf("%w: SDOC declares absurd size %d", ErrCorrupt, want)
	}
	r := flate.NewReader(bytes.NewReader(rest[8:]))
	defer r.Close()
	text, err := io.ReadAll(io.LimitReader(r, int64(want)+1))
	if err != nil {
		return "", fmt.Errorf("%w: SDOC body read failed", ErrCorrupt)
	}
	if uint64(len(text)) != want {
		return "", fmt.Errorf("%w: SDOC length %d != declared %d", ErrCorrupt, len(text), want)
	}
	return string(text), nil
}

// ---------------------------------------------------------------------
// SPDF: sequence of text objects "obj <len>\n<bytes>\nendobj\n".

// BuildSPDF packs paragraphs into an SPDF container, one object each.
func BuildSPDF(paragraphs ...string) []byte {
	var b bytes.Buffer
	b.Write(magicSPDF)
	for _, p := range paragraphs {
		fmt.Fprintf(&b, "obj %d\n", len(p))
		b.WriteString(p)
		b.WriteString("\nendobj\n")
	}
	b.WriteString("%%EOF\n")
	return b.Bytes()
}

func spdfText(data []byte) (string, error) {
	rest := data[len(magicSPDF):]
	var out []string
	for {
		if bytes.HasPrefix(rest, []byte("%%EOF")) {
			return strings.Join(out, "\n"), nil
		}
		var n int
		if _, err := fmt.Fscanf(bytes.NewReader(rest), "obj %d\n", &n); err != nil {
			return "", fmt.Errorf("%w: SPDF object header read failed", ErrCorrupt)
		}
		hdrEnd := bytes.IndexByte(rest, '\n')
		if hdrEnd < 0 || n < 0 || hdrEnd+1+n+len("\nendobj\n") > len(rest) {
			return "", fmt.Errorf("%w: SPDF object overruns container", ErrCorrupt)
		}
		body := rest[hdrEnd+1 : hdrEnd+1+n]
		tail := rest[hdrEnd+1+n:]
		if !bytes.HasPrefix(tail, []byte("\nendobj\n")) {
			return "", fmt.Errorf("%w: SPDF missing endobj", ErrCorrupt)
		}
		out = append(out, string(body))
		rest = tail[len("\nendobj\n"):]
	}
}

// ---------------------------------------------------------------------
// SIMG: a 5x7 glyph-bitmap "scan" of text. BuildSIMG renders each rune
// of the (ASCII printable) text into a 5-byte column bitmap; simgText
// "OCRs" the image by nearest-glyph matching, tolerating a limited number
// of flipped bits — which lets tests inject noise like a real scan.

const glyphW = 5

// font maps a subset of characters to 5-column bitmaps (7 bits used per
// column). The exact shapes don't matter; distinctness does.
var font = buildFont()

func buildFont() map[byte][glyphW]byte {
	m := make(map[byte][glyphW]byte)
	charset := []byte("abcdefghijklmnopqrstuvwxyz0123456789 .,@-:/$#")
	for i, ch := range charset {
		var g [glyphW]byte
		seed := uint32(i + 1)
		for c := 0; c < glyphW; c++ {
			seed = seed*1664525 + 1013904223
			g[c] = byte(seed>>24) & 0x7F
		}
		// Guarantee at least one set bit so no glyph is blank.
		g[0] |= 1
		m[ch] = g
	}
	return m
}

// BuildSIMG renders text (lowercased; unsupported runes become spaces)
// into a synthetic image.
func BuildSIMG(text string) []byte {
	text = strings.ToLower(text)
	var b bytes.Buffer
	b.Write(magicSIMG)
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], uint32(len(text)))
	b.Write(lenBuf[:])
	for i := 0; i < len(text); i++ {
		g, ok := font[text[i]]
		if !ok {
			g = font[' ']
		}
		b.Write(g[:])
	}
	return b.Bytes()
}

// FlipBits corrupts an SIMG in place-ish (returns a copy) by XOR-ing one
// bit in each of n glyph columns, emulating scanner noise for tests.
func FlipBits(img []byte, n int) []byte {
	out := append([]byte(nil), img...)
	start := len(magicSIMG) + 4
	glyphs := (len(out) - start) / glyphW
	if glyphs <= 0 {
		return out
	}
	for i := 0; i < n; i++ {
		out[start+(i%glyphs)*glyphW] ^= 0x40
	}
	return out
}

func simgText(data []byte) (string, error) {
	rest := data[len(magicSIMG):]
	if len(rest) < 4 {
		return "", fmt.Errorf("%w: SIMG header truncated", ErrCorrupt)
	}
	n := int(binary.BigEndian.Uint32(rest[:4]))
	rest = rest[4:]
	if n < 0 || n*glyphW > len(rest) {
		return "", fmt.Errorf("%w: SIMG glyph data truncated", ErrCorrupt)
	}
	var sb strings.Builder
	for i := 0; i < n; i++ {
		col := rest[i*glyphW : (i+1)*glyphW]
		ch, dist := nearestGlyph(col)
		if dist > 8 { // unrecognizable smudge
			ch = '?'
		}
		sb.WriteByte(ch)
	}
	return sb.String(), nil
}

func nearestGlyph(col []byte) (byte, int) {
	best := byte('?')
	bestDist := 1 << 30
	for ch, g := range font {
		d := 0
		for c := 0; c < glyphW; c++ {
			d += popcount(col[c] ^ g[c])
		}
		if d < bestDist || (d == bestDist && ch < best) {
			best, bestDist = ch, d
		}
	}
	return best, bestDist
}

func popcount(b byte) int {
	n := 0
	for ; b != 0; b &= b - 1 {
		n++
	}
	return n
}

// ---------------------------------------------------------------------
// HTML

// HTMLText strips tags, drops script/style content and decodes the
// common entities, approximating what a text extractor recovers from an
// HTML email body.
func HTMLText(html string) string {
	var sb strings.Builder
	i := 0
	for i < len(html) {
		c := html[i]
		if c != '<' {
			sb.WriteByte(c)
			i++
			continue
		}
		end := strings.IndexByte(html[i:], '>')
		if end < 0 {
			break // unterminated tag: discard the rest
		}
		tag := strings.ToLower(strings.TrimSpace(html[i+1 : i+end]))
		i += end + 1
		name := tag
		if j := strings.IndexAny(name, " \t\n"); j >= 0 {
			name = name[:j]
		}
		switch name {
		case "script", "style":
			// skip to the closing tag
			closeTag := "</" + name
			j := strings.Index(strings.ToLower(html[i:]), closeTag)
			if j < 0 {
				i = len(html)
				continue
			}
			i += j
			if k := strings.IndexByte(html[i:], '>'); k >= 0 {
				i += k + 1
			} else {
				i = len(html)
			}
		case "br", "p", "/p", "div", "/div", "tr", "/tr", "li", "/li":
			sb.WriteByte('\n')
		}
	}
	return decodeEntities(sb.String())
}

var entityReplacer = strings.NewReplacer(
	"&amp;", "&", "&lt;", "<", "&gt;", ">", "&quot;", `"`,
	"&apos;", "'", "&nbsp;", " ", "&#39;", "'",
)

func decodeEntities(s string) string { return entityReplacer.Replace(s) }
