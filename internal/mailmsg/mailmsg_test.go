package mailmsg

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestHeaderBasics(t *testing.T) {
	m := New()
	m.SetHeader("subject", "Hello")
	m.SetHeader("reply-to", "a@b.com")
	m.AddHeader("received", "hop1")
	m.AddHeader("Received", "hop2")

	if got := m.Header("Subject"); got != "Hello" {
		t.Errorf("Header(Subject) = %q", got)
	}
	if got := m.Header("REPLY-TO"); got != "a@b.com" {
		t.Errorf("case-insensitive get failed: %q", got)
	}
	if got := m.HeaderValues("Received"); len(got) != 2 || got[1] != "hop2" {
		t.Errorf("HeaderValues = %v", got)
	}
	if !m.HasHeader("subject") || m.HasHeader("cc") {
		t.Error("HasHeader wrong")
	}
	keys := m.HeaderKeys()
	if len(keys) != 3 || keys[0] != "Subject" || keys[1] != "Reply-To" {
		t.Errorf("HeaderKeys = %v", keys)
	}
	m.SetHeader("Subject", "Replaced")
	if got := m.HeaderValues("Subject"); len(got) != 1 || got[0] != "Replaced" {
		t.Errorf("SetHeader did not replace: %v", got)
	}
}

func TestAddrParsing(t *testing.T) {
	tests := []struct {
		in                  string
		addr, domain, local string
	}{
		{"Alice <alice@gmail.com>", "alice@gmail.com", "gmail.com", "alice"},
		{"bob@GMIAL.COM", "bob@gmial.com", "gmial.com", "bob"},
		{"", "", "", ""},
		{"not-an-address", "not-an-address", "", ""},
		{"\"Support\" <support@chase.com>", "support@chase.com", "chase.com", "support"},
	}
	for _, tc := range tests {
		if got := Addr(tc.in); got != tc.addr {
			t.Errorf("Addr(%q) = %q, want %q", tc.in, got, tc.addr)
		}
		if got := AddrDomain(tc.in); got != tc.domain {
			t.Errorf("AddrDomain(%q) = %q, want %q", tc.in, got, tc.domain)
		}
		if got := LocalPart(tc.in); got != tc.local {
			t.Errorf("LocalPart(%q) = %q, want %q", tc.in, got, tc.local)
		}
	}
}

func TestPlainRoundTrip(t *testing.T) {
	m := NewBuilder("alice@gmail.com", "bob@gmial.com", "lunch?").
		Date(time.Date(2016, 6, 10, 12, 0, 0, 0, time.UTC)).
		MessageID("abc123@gmail.com").
		Body("Are you free at noon?\nBring the slides.\n").
		Build()
	raw := m.Bytes()
	if !bytes.Contains(raw, []byte("\r\n\r\n")) {
		t.Fatal("missing header/body separator")
	}
	got, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.From() != "alice@gmail.com" || got.To() != "bob@gmial.com" || got.Subject() != "lunch?" {
		t.Errorf("headers = %q %q %q", got.From(), got.To(), got.Subject())
	}
	wantBody := "Are you free at noon?\r\nBring the slides.\r\n"
	if got.Body != wantBody {
		t.Errorf("body = %q, want %q", got.Body, wantBody)
	}
	if len(got.Attachments) != 0 {
		t.Errorf("unexpected attachments: %d", len(got.Attachments))
	}
}

func TestMultipartRoundTrip(t *testing.T) {
	pdf := []byte("%PDF-1.4 fake visa document body \x00\x01\x02")
	docx := bytes.Repeat([]byte{0x50, 0x4B, 0x03, 0x04, 0xAB}, 50) // > one b64 line
	m := NewBuilder("hr@zohomil.com", "applicant@gmail.com", "Your visa documents").
		Body("Please find attached.\n").
		Attach("visa.pdf", "application/pdf", pdf).
		Attach("resume.docx", "application/vnd.openxmlformats-officedocument.wordprocessingml.document", docx).
		Build()
	raw := m.Bytes()
	got, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(got.Body, "Please find attached.") {
		t.Errorf("body = %q", got.Body)
	}
	if len(got.Attachments) != 2 {
		t.Fatalf("attachments = %d, want 2", len(got.Attachments))
	}
	if got.Attachments[0].Filename != "visa.pdf" || !bytes.Equal(got.Attachments[0].Data, pdf) {
		t.Errorf("pdf attachment corrupted")
	}
	if !bytes.Equal(got.Attachments[1].Data, docx) {
		t.Errorf("docx attachment corrupted: %d vs %d bytes", len(got.Attachments[1].Data), len(docx))
	}
	if got.Attachments[0].Ext() != "pdf" || got.Attachments[1].Ext() != "docx" {
		t.Errorf("exts = %q, %q", got.Attachments[0].Ext(), got.Attachments[1].Ext())
	}
}

func TestAttachmentExt(t *testing.T) {
	tests := []struct {
		name, want string
	}{
		{"report.PDF", "pdf"},
		{"archive.tar.gz", "gz"},
		{"noext", ""},
		{"double.pdf.exe", "exe"},
	}
	for _, tc := range tests {
		a := Attachment{Filename: tc.name}
		if got := a.Ext(); got != tc.want {
			t.Errorf("Ext(%q) = %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestParseQuotedPrintableBody(t *testing.T) {
	raw := "From: a@b.com\r\nTo: c@d.com\r\nContent-Type: text/plain\r\n" +
		"Content-Transfer-Encoding: quoted-printable\r\n\r\n" +
		"Caf=C3=A9 receipts =E2=82=AC20\r\n"
	m, err := Parse([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(m.Body, "Café receipts €20") {
		t.Errorf("QP body = %q", m.Body)
	}
}

func TestParseBase64Body(t *testing.T) {
	raw := "From: a@b.com\r\nContent-Transfer-Encoding: base64\r\n\r\n" +
		"aGVsbG8g\r\nd29ybGQ=\r\n"
	m, err := Parse([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	if m.Body != "hello world" {
		t.Errorf("b64 body = %q", m.Body)
	}
}

func TestParseHeaderFolding(t *testing.T) {
	raw := "From: a@b.com\r\nSubject: a very\r\n long subject line\r\n\r\nbody\r\n"
	m, err := Parse([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(m.Subject(), "long subject line") {
		t.Errorf("folded subject = %q", m.Subject())
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse([]byte("no header separator at all")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestHeaderInjectionSanitized(t *testing.T) {
	m := New()
	m.SetHeader("Subject", "hi\r\nBcc: victim@example.com")
	raw := string(m.Bytes())
	if strings.Contains(raw, "\r\nBcc:") {
		t.Error("header injection not neutralized")
	}
}

func TestDeterministicSerialization(t *testing.T) {
	build := func() []byte {
		return NewBuilder("a@b.com", "c@d.com", "s").
			Body("same body").
			Attach("f.txt", "text/plain", []byte("data")).
			Build().Bytes()
	}
	if !bytes.Equal(build(), build()) {
		t.Error("serialization not deterministic")
	}
}

func TestBytesParseProperty(t *testing.T) {
	// Property: any printable body survives a Bytes->Parse round trip
	// modulo newline canonicalization.
	f := func(body string) bool {
		clean := strings.Map(func(r rune) rune {
			if r == '\r' {
				return -1
			}
			if r < 32 && r != '\n' {
				return -1
			}
			if r > 126 {
				return -1 // keep to ASCII; charset handling tested separately
			}
			return r
		}, body)
		m := NewBuilder("a@b.com", "c@d.com", "prop").Body(clean).Build()
		got, err := Parse(m.Bytes())
		if err != nil {
			return false
		}
		want := strings.ReplaceAll(clean, "\n", "\r\n")
		gotBody := strings.TrimSuffix(got.Body, "\r\n")
		wantBody := strings.TrimSuffix(want, "\r\n")
		return gotBody == wantBody
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAttachmentRoundTripProperty(t *testing.T) {
	f := func(data []byte) bool {
		m := NewBuilder("a@b.com", "c@d.com", "prop").
			Body("see attachment").
			Attach("blob.bin", "application/octet-stream", data).
			Build()
		got, err := Parse(m.Bytes())
		if err != nil || len(got.Attachments) != 1 {
			return false
		}
		return bytes.Equal(got.Attachments[0].Data, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestHTMLAlternativeRoundTrip(t *testing.T) {
	m := NewBuilder("svc@shop.example", "user@gmial.com", "Your order").
		Body("Your order #42 shipped.\nUnsubscribe: reply STOP\n").
		HTML("<html><body><p>Your order <b>#42</b> shipped.</p><a href=\"https://shop.example/unsub\">Unsubscribe</a></body></html>").
		Build()
	got, err := Parse(m.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(got.Body, "order #42 shipped") {
		t.Errorf("text body = %q", got.Body)
	}
	if !strings.Contains(got.HTMLBody, "<b>#42</b>") {
		t.Errorf("html body = %q", got.HTMLBody)
	}
}

func TestHTMLAlternativeWithAttachment(t *testing.T) {
	data := []byte{1, 2, 3, 4}
	m := NewBuilder("a@b.com", "c@d.com", "nested").
		Body("plain").
		HTML("<p>rich</p>").
		Attach("f.bin", "application/octet-stream", data).
		Build()
	got, err := Parse(m.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(got.Body, "plain") || !strings.Contains(got.HTMLBody, "rich") {
		t.Errorf("bodies = %q / %q", got.Body, got.HTMLBody)
	}
	if len(got.Attachments) != 1 || !bytes.Equal(got.Attachments[0].Data, data) {
		t.Errorf("attachments = %+v", got.Attachments)
	}
}

func TestHTMLOnlyMessage(t *testing.T) {
	raw := "From: a@b.com\r\nContent-Type: text/html\r\n\r\n<p>only html, click <a href=x>here</a></p>\r\n"
	m, err := Parse([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	if m.HTMLBody == "" || m.Body != "" {
		t.Fatalf("bodies = %q / %q", m.Body, m.HTMLBody)
	}
	text := m.Text()
	if !strings.Contains(text, "only html, click") || strings.Contains(text, "<p>") {
		t.Errorf("Text() = %q", text)
	}
}

func TestTextPrefersPlainBody(t *testing.T) {
	m := New()
	m.Body = "plain wins"
	m.HTMLBody = "<p>html loses</p>"
	if m.Text() != "plain wins" {
		t.Errorf("Text() = %q", m.Text())
	}
}

func TestStripHTML(t *testing.T) {
	got := StripHTML(`<div class="x">a &amp; b</div><br>c`)
	if !strings.Contains(got, "a & b") || strings.Contains(got, "<div") {
		t.Errorf("StripHTML = %q", got)
	}
}

func TestMultipartNestingBounded(t *testing.T) {
	// A hostile message nested deeper than the cap must be rejected, not
	// recursed into.
	inner := "deep"
	for i := 0; i < 8; i++ {
		b := fmt.Sprintf("b%d", i)
		inner = fmt.Sprintf("--%s\r\nContent-Type: multipart/mixed; boundary=%q\r\n\r\n%s\r\n--%s--\r\n",
			b, fmt.Sprintf("b%d", i-1), inner, b)
	}
	raw := "From: a@b.com\r\nContent-Type: multipart/mixed; boundary=\"b7\"\r\n\r\n" + inner
	if _, err := Parse([]byte(raw)); err == nil {
		t.Error("unbounded nesting accepted")
	}
}

// TestCloneDeep checks Clone copies every part of a message, keeps the
// header order, and shares no mutable state with the original.
func TestCloneDeep(t *testing.T) {
	m := NewBuilder("a@b.example", "c@d.example", "hello").
		Header("Reply-To", "r@b.example").
		Body("plain body").
		HTML("<p>html body</p>").
		Attach("x.zip", "application/zip", []byte{1, 2, 3}).
		Build()
	m.AddHeader("Received", "hop1")
	m.AddHeader("Received", "hop2")
	orig := m.Bytes()

	c := m.Clone()
	if !bytes.Equal(c.Bytes(), orig) {
		t.Fatal("clone serializes differently from the original")
	}
	if got, want := strings.Join(c.HeaderKeys(), ","), strings.Join(m.HeaderKeys(), ","); got != want {
		t.Fatalf("clone header order %q, want %q", got, want)
	}

	c.SetHeader("Subject", "changed")
	c.AddHeader("Received", "hop3")
	c.SetHeader("X-New", "v")
	c.Body = "changed"
	c.HTMLBody = "changed"
	c.Attachments[0].Data[0] = 9
	c.Attachments[0].Filename = "y.exe"
	c.Attachments = append(c.Attachments, Attachment{Filename: "z.rar"})
	if !bytes.Equal(m.Bytes(), orig) {
		t.Fatal("mutating the clone changed the original")
	}

	// The other direction: appending to the original's multi-valued
	// header must not reach the clone through a shared backing array.
	before := c.Bytes()
	m.AddHeader("Received", "hop4")
	m.Attachments[0].Data[1] = 9
	if !bytes.Equal(c.Bytes(), before) {
		t.Fatal("mutating the original changed the clone")
	}
}

// TestAddHeaderAmortized bounds the allocations of many appends to one
// key: the value slice grows by doubling, so 4,096 appends cost a few
// dozen allocations, where copying the slice on every append would
// cost one per call.
func TestAddHeaderAmortized(t *testing.T) {
	const n = 4096
	allocs := testing.AllocsPerRun(10, func() {
		m := New()
		for i := 0; i < n; i++ {
			m.AddHeader("Received", "hop")
		}
	})
	if allocs > 40 {
		t.Fatalf("%d AddHeader calls on one key: %.0f allocations, want <= 40", n, allocs)
	}
}

// TestParseManyReceivedLinear checks that parsing a message with ~20k
// Received: lines costs about as many bytes per line as one with 2k:
// merging the values into one field must not copy the slice per line.
func TestParseManyReceivedLinear(t *testing.T) {
	bytesPerLine := func(n int) float64 {
		var b strings.Builder
		b.WriteString("From: a@b.example\r\nSubject: hops\r\n")
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "Received: from relay%d.example by mx.example\r\n", i)
		}
		b.WriteString("\r\nbody\r\n")
		raw := []byte(b.String())
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := Parse(raw)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(m.HeaderValues("Received")); got != n {
			t.Fatalf("parsed %d Received values, want %d", got, n)
		}
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
	}
	small, large := bytesPerLine(2000), bytesPerLine(20000)
	if large > 2*small {
		t.Fatalf("Parse allocates %.0f B/line at 20k Received lines against %.0f at 2k: not linear", large, small)
	}
}

// TestHeaderValuesIsACopy checks that writing into the slice
// HeaderValues returns reaches neither the message nor its clone.
func TestHeaderValuesIsACopy(t *testing.T) {
	m := New()
	m.AddHeader("Received", "hop1")
	m.AddHeader("Received", "hop2")
	c := m.Clone()
	vs := m.HeaderValues("Received")
	vs[0] = "forged"
	vs = append(vs[:1], "forged2")
	cs := c.HeaderValues("Received")
	cs[1] = "forged3"
	for _, msg := range []*Message{m, c} {
		if got := strings.Join(msg.HeaderValues("Received"), ","); got != "hop1,hop2" {
			t.Fatalf("Received = %q after writing a returned slice, want hop1,hop2", got)
		}
	}
}

// TestCloneAppendsIndependently checks that a clone and its original
// can both append to a key whose value slice has spare capacity
// without either append reaching the other.
func TestCloneAppendsIndependently(t *testing.T) {
	m := New()
	for _, v := range []string{"hop1", "hop2", "hop3"} {
		m.AddHeader("Received", v)
	}
	c := m.Clone()
	c.AddHeader("Received", "clone")
	m.AddHeader("Received", "orig")
	if got := strings.Join(c.HeaderValues("Received"), ","); got != "hop1,hop2,hop3,clone" {
		t.Errorf("clone Received = %q", got)
	}
	if got := strings.Join(m.HeaderValues("Received"), ","); got != "hop1,hop2,hop3,orig" {
		t.Errorf("original Received = %q", got)
	}
}

// TestCloneConcurrent clones one message from several goroutines, as
// the campaign generator does with its shared skeletons, and mutates
// every clone; under -race it checks that cloning only reads the
// original and that no clone's writes reach it.
func TestCloneConcurrent(t *testing.T) {
	m := NewBuilder("a@b.example", "c@d.example", "hello").
		Attach("x.zip", "application/zip", []byte{1, 2, 3}).
		Build()
	m.AddHeader("Received", "hop1")
	m.AddHeader("Received", "hop2")
	m.AddHeader("Received", "hop3")
	orig := m.Bytes()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				c := m.Clone()
				c.SetHeader("To", fmt.Sprintf("r%d-%d@d.example", g, i))
				c.AddHeader("Received", "hop4")
				c.Attachments[0].Data[0] = byte(g)
				if got := len(c.HeaderValues("Received")); got != 4 {
					t.Errorf("clone has %d Received values, want 4", got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if !bytes.Equal(m.Bytes(), orig) {
		t.Fatal("mutating clones changed the original")
	}
}

// TestParseMergesCanonicalKeys checks that raw header names net/mail
// keeps apart but that share a canonical key land in one field, in
// sorted raw-key order.
func TestParseMergesCanonicalKeys(t *testing.T) {
	m, err := Parse([]byte("x-a : two\r\nX-A: one\r\nSubject: s\r\n\r\nbody\r\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(m.HeaderKeys(), ","); got != "Subject,X-A" {
		t.Errorf("HeaderKeys = %q, want Subject,X-A", got)
	}
	if got := strings.Join(m.HeaderValues("X-A"), ","); got != "one,two" {
		t.Errorf("X-A = %q, want one,two", got)
	}
}
