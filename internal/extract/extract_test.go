package extract

import (
	"bytes"
	"compress/flate"
	"errors"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestPlainPassThrough(t *testing.T) {
	for _, name := range []string{"notes.txt", "data.csv", "cal.ics", "feed.xml", "noext"} {
		got, err := Text(name, []byte("hello world"))
		if err != nil || got != "hello world" {
			t.Errorf("Text(%q) = %q, %v", name, got, err)
		}
	}
}

func TestSDOCRoundTrip(t *testing.T) {
	text := "Visa application for John Lavorato\nAmex 371385129301004 Exp 06/03\n"
	doc := BuildSDOC(text)
	got, err := Text("visa.docx", doc)
	if err != nil {
		t.Fatal(err)
	}
	if got != text {
		t.Errorf("SDOC round trip = %q", got)
	}
}

// TestSDOCReusedWriterMatchesFresh holds BuildSDOC's shared,
// Reset-reused compressor to a fresh flate.NewWriter per container:
// identical bytes for texts of different sizes built one after another
// and from concurrent goroutines.
func TestSDOCReusedWriterMatchesFresh(t *testing.T) {
	fresh := func(text string) []byte {
		var body bytes.Buffer
		w, _ := flate.NewWriter(&body, flate.BestSpeed)
		w.Write([]byte(text))
		w.Close()
		var n [8]byte
		for i := 0; i < 8; i++ {
			n[7-i] = byte(uint64(len(text)) >> (8 * i))
		}
		return append(append(append([]byte(nil), magicSDOC...), n[:]...), body.Bytes()...)
	}
	texts := []string{"", "short", strings.Repeat("Quarterly numbers attached. ", 400), "Amex 371385129301004 Exp 06/03\n", "short"}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, text := range texts {
				if got, want := BuildSDOC(text), fresh(text); !bytes.Equal(got, want) {
					t.Errorf("BuildSDOC(%.20q) differs from a fresh writer's container", text)
				}
			}
		}()
	}
	wg.Wait()
}

func TestSDOCCorruption(t *testing.T) {
	doc := BuildSDOC("some text")
	tests := []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"truncated header", func(d []byte) []byte { return d[:len(magicSDOC)+3] }},
		{"truncated body", func(d []byte) []byte { return d[:len(d)-3] }},
		{"length mismatch", func(d []byte) []byte {
			c := append([]byte(nil), d...)
			c[len(magicSDOC)+7] += 5
			return c
		}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Text("x.docx", tc.mut(doc)); !errors.Is(err, ErrCorrupt) {
				t.Errorf("err = %v, want ErrCorrupt", err)
			}
		})
	}
}

func TestDocxWithoutContainerRejected(t *testing.T) {
	if _, err := Text("report.docx", []byte("raw bytes")); !errors.Is(err, ErrUnknownFormat) {
		t.Errorf("err = %v, want ErrUnknownFormat", err)
	}
}

func TestSPDFRoundTrip(t *testing.T) {
	pdf := BuildSPDF("Page one text.", "Page two: SSN 078-05-1120.")
	got, err := Text("doc.pdf", pdf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(got, "Page one text.") || !strings.Contains(got, "078-05-1120") {
		t.Errorf("SPDF text = %q", got)
	}
}

func TestSPDFEmpty(t *testing.T) {
	got, err := Text("empty.pdf", BuildSPDF())
	if err != nil || got != "" {
		t.Errorf("empty SPDF = %q, %v", got, err)
	}
}

func TestSPDFCorrupt(t *testing.T) {
	pdf := BuildSPDF("content")
	if _, err := Text("x.pdf", pdf[:len(pdf)-8]); !errors.Is(err, ErrCorrupt) {
		t.Errorf("truncated SPDF err = %v", err)
	}
	bad := append([]byte{}, magicSPDF...)
	bad = append(bad, []byte("obj 99999\nshort\nendobj\n%%EOF\n")...)
	if _, err := Text("x.pdf", bad); !errors.Is(err, ErrCorrupt) {
		t.Errorf("overrun SPDF err = %v", err)
	}
}

func TestSIMGOCRRoundTrip(t *testing.T) {
	text := "password: hunter2 card 4111"
	img := BuildSIMG(text)
	got, err := Text("scan.png", img)
	if err != nil {
		t.Fatal(err)
	}
	if got != text {
		t.Errorf("OCR = %q, want %q", got, text)
	}
}

func TestSIMGOCRWithNoise(t *testing.T) {
	// One flipped bit per glyph must still decode: nearest-glyph matching
	// is the point of the OCR stand-in.
	text := "account 12345 at chase"
	img := FlipBits(BuildSIMG(text), len(text))
	got, err := Text("scan.png", img)
	if err != nil {
		t.Fatal(err)
	}
	if got != text {
		t.Errorf("noisy OCR = %q, want %q", got, text)
	}
}

func TestSIMGTruncated(t *testing.T) {
	img := BuildSIMG("hello")
	if _, err := Text("x.png", img[:len(img)-2]); !errors.Is(err, ErrCorrupt) {
		t.Errorf("truncated SIMG err = %v", err)
	}
	if _, err := Text("x.png", img[:len(magicSIMG)+1]); !errors.Is(err, ErrCorrupt) {
		t.Errorf("headerless SIMG err = %v", err)
	}
}

func TestUnknownBinaryRejected(t *testing.T) {
	if _, err := Text("virus.exe", []byte{0x4D, 0x5A, 0x90}); !errors.Is(err, ErrUnknownFormat) {
		t.Errorf("err = %v, want ErrUnknownFormat", err)
	}
}

func TestHTMLText(t *testing.T) {
	html := `<html><head><style>.x{color:red}</style>
<script>alert("evil")</script></head>
<body><p>Dear customer,</p><div>Your order <b>#123</b> shipped.</div>
Use code &quot;SAVE&amp;WIN&quot; &lt;today&gt;</body></html>`
	got := HTMLText(html)
	for _, want := range []string{"Dear customer,", "Your order #123 shipped.", `"SAVE&WIN" <today>`} {
		if !strings.Contains(got, want) {
			t.Errorf("HTMLText missing %q in %q", want, got)
		}
	}
	for _, evil := range []string{"alert", "color:red", "<p>", "<b>"} {
		if strings.Contains(got, evil) {
			t.Errorf("HTMLText leaked %q", evil)
		}
	}
}

func TestHTMLViaText(t *testing.T) {
	got, err := Text("newsletter.html", []byte("<p>unsubscribe here</p>"))
	if err != nil || !strings.Contains(got, "unsubscribe here") {
		t.Errorf("Text html = %q, %v", got, err)
	}
}

func TestHTMLUnterminatedTag(t *testing.T) {
	if got := HTMLText("text before <a href="); got != "text before " {
		t.Errorf("unterminated tag = %q", got)
	}
}

func TestHTMLLineBreaks(t *testing.T) {
	got := HTMLText("a<br>b<p>c</p>d")
	if !strings.Contains(got, "a\nb") {
		t.Errorf("br not translated: %q", got)
	}
}

// Property: SDOC and SIMG round-trip arbitrary inputs (SIMG over its
// charset).
func TestSDOCRoundTripProperty(t *testing.T) {
	f := func(s string) bool {
		got, err := sdocText(BuildSDOC(s))
		return err == nil && got == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSIMGRoundTripProperty(t *testing.T) {
	const charset = "abcdefghijklmnopqrstuvwxyz0123456789 .,@-:/$#"
	f := func(raw []byte) bool {
		if len(raw) > 64 {
			raw = raw[:64]
		}
		var sb strings.Builder
		for _, b := range raw {
			sb.WriteByte(charset[int(b)%len(charset)])
		}
		s := sb.String()
		got, err := simgText(BuildSIMG(s))
		return err == nil && got == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
