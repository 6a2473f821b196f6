// Package mailmsg models the email messages flowing through the study:
// construction and serialization on the sending side (spam generators,
// user typing model, honey emails) and parsing/tokenization on the
// collection side ("tokenize the email into header, body and attachments",
// Section 4.2.2).
//
// It supports the subset of RFC 5322 + MIME that the pipeline needs:
// top-level text bodies, multipart/mixed with base64 or quoted-printable
// parts, named attachments and the header fields the five filtering layers
// examine.
package mailmsg

import (
	"bytes"
	"encoding/base64"
	"errors"
	"fmt"
	"io"
	"mime"
	"mime/multipart"
	"mime/quotedprintable"
	"net/mail"
	"path"
	"sort"
	"strings"
	"time"
)

// Attachment is one MIME part carrying a file.
type Attachment struct {
	Filename    string
	ContentType string
	Data        []byte
}

// Ext returns the lowercased filename extension without the dot ("pdf"),
// the unit of Figure 7's analysis. Double extensions like "report.pdf.exe"
// return the final one.
func (a Attachment) Ext() string {
	return strings.TrimPrefix(strings.ToLower(path.Ext(a.Filename)), ".")
}

// Message is a parsed or under-construction email.
type Message struct {
	// header preserves insertion order; keys are canonicalized.
	headerKeys []string
	header     map[string][]string

	Body string
	// HTMLBody, when set, is serialized as a multipart/alternative
	// companion to Body — the common shape of the automated notification
	// mail Layer 4 classifies.
	HTMLBody    string
	Attachments []Attachment
}

// New returns an empty message.
func New() *Message {
	return &Message{header: make(map[string][]string)}
}

// canonicalKey normalizes header names ("reply-to" -> "Reply-To").
func canonicalKey(k string) string {
	if isCanonicalKey(k) {
		return k
	}
	parts := strings.Split(strings.ToLower(strings.TrimSpace(k)), "-")
	for i, p := range parts {
		if p == "" {
			continue
		}
		parts[i] = strings.ToUpper(p[:1]) + p[1:]
	}
	return strings.Join(parts, "-")
}

// isCanonicalKey reports whether k is already in canonical form — the
// case for every compile-time header key ("Subject", "Reply-To"), which
// the accessors pass on every message read. Anything unusual (spaces,
// non-ASCII) conservatively takes the allocating slow path.
func isCanonicalKey(k string) bool {
	start := true
	for i := 0; i < len(k); i++ {
		c := k[i]
		if c >= 0x80 || c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			return false
		}
		if c == '-' {
			start = true
			continue
		}
		if start && c >= 'a' && c <= 'z' || !start && c >= 'A' && c <= 'Z' {
			return false
		}
		start = false
	}
	return true
}

// SetHeader replaces all values of key.
func (m *Message) SetHeader(key, value string) {
	key = canonicalKey(key)
	if _, ok := m.header[key]; !ok {
		m.headerKeys = append(m.headerKeys, key)
	}
	m.header[key] = []string{value}
}

// AddHeader appends a value to key.
func (m *Message) AddHeader(key, value string) {
	key = canonicalKey(key)
	if _, ok := m.header[key]; !ok {
		m.headerKeys = append(m.headerKeys, key)
	}
	m.header[key] = append(m.header[key], value)
}

// Header returns the first value of key, or "".
func (m *Message) Header(key string) string {
	vs := m.header[canonicalKey(key)]
	if len(vs) == 0 {
		return ""
	}
	return vs[0]
}

// HeaderValues returns all values of key.
func (m *Message) HeaderValues(key string) []string { return m.header[canonicalKey(key)] }

// HasHeader reports whether key is present.
func (m *Message) HasHeader(key string) bool { return len(m.header[canonicalKey(key)]) > 0 }

// Clone returns a deep copy: headers (in insertion order), bodies and
// attachment bytes share nothing with m, so either may be mutated
// without the other seeing it.
func (m *Message) Clone() *Message {
	c := &Message{
		headerKeys: append([]string(nil), m.headerKeys...),
		header:     make(map[string][]string, len(m.headerKeys)),
		Body:       m.Body,
		HTMLBody:   m.HTMLBody,
	}
	for _, k := range m.headerKeys {
		c.header[k] = append([]string(nil), m.header[k]...)
	}
	if m.Attachments != nil {
		c.Attachments = make([]Attachment, len(m.Attachments))
		for i, a := range m.Attachments {
			a.Data = append([]byte(nil), a.Data...)
			c.Attachments[i] = a
		}
	}
	return c
}

// HeaderKeys returns the header names in insertion order.
func (m *Message) HeaderKeys() []string { return append([]string(nil), m.headerKeys...) }

// Convenience accessors for the fields the filter layers read.

// From returns the From header.
func (m *Message) From() string { return m.Header("From") }

// To returns the To header.
func (m *Message) To() string { return m.Header("To") }

// Subject returns the Subject header.
func (m *Message) Subject() string { return m.Header("Subject") }

// Addr extracts the bare address from an RFC 5322 mailbox field value
// ("Alice <alice@gmail.com>" -> "alice@gmail.com"). It falls back to the
// raw string lowercased when parsing fails (spam is rarely well-formed).
func Addr(field string) string {
	field = strings.TrimSpace(field)
	if field == "" {
		return ""
	}
	if bareLowerAddr(field) {
		return field
	}
	if a, err := mail.ParseAddress(field); err == nil {
		return strings.ToLower(a.Address)
	}
	return strings.ToLower(field)
}

// bareLowerAddr reports whether field contains only lower-case dot-atom
// bytes (no display name, angle brackets, comments, or upper case) —
// the common envelope form, for which the parse-then-lower pipeline is
// the identity: ParseAddress either returns the field verbatim or fails
// and falls back to ToLower, which changes nothing.
func bareLowerAddr(field string) bool {
	for i := 0; i < len(field); i++ {
		switch c := field[i]; {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '%', c == '+', c == '-', c == '=', c == '@':
		default:
			return false
		}
	}
	return true
}

// AddrDomain returns the domain part of an address field, or "".
func AddrDomain(field string) string {
	addr := Addr(field)
	i := strings.LastIndexByte(addr, '@')
	if i < 0 || i == len(addr)-1 {
		return ""
	}
	return addr[i+1:]
}

// LocalPart returns the local part of an address field, or "".
func LocalPart(field string) string {
	addr := Addr(field)
	i := strings.LastIndexByte(addr, '@')
	if i <= 0 {
		return ""
	}
	return addr[:i]
}

// mimeBoundary derives a deterministic boundary from message content; the
// study needs byte-reproducible corpora across runs.
func (m *Message) mimeBoundary() string {
	var h uint64 = 14695981039346656037
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
	}
	mix(m.Body)
	for _, a := range m.Attachments {
		mix(a.Filename)
	}
	return fmt.Sprintf("=_boundary_%016x", h)
}

// Bytes serializes the message to RFC 5322 wire form with CRLF line
// endings, ready for SMTP DATA. Messages with both bodies serialize as
// multipart/alternative; attachments wrap everything in multipart/mixed.
func (m *Message) Bytes() []byte {
	var b bytes.Buffer
	boundary := m.mimeBoundary()
	altBoundary := boundary + "_alt"

	for _, k := range m.headerKeys {
		switch k {
		case "Content-Type", "Content-Transfer-Encoding", "Mime-Version":
			// Bytes owns the MIME structure; stale structural headers from
			// a previous parse would contradict the body being written.
			continue
		}
		for _, v := range m.header[k] {
			fmt.Fprintf(&b, "%s: %s\r\n", k, sanitizeHeaderValue(v))
		}
	}
	b.WriteString("Mime-Version: 1.0\r\n")

	writeTextPart := func(b *bytes.Buffer) {
		b.WriteString("Content-Type: text/plain; charset=utf-8\r\n")
		b.WriteString("Content-Transfer-Encoding: quoted-printable\r\n\r\n")
		qp := quotedprintable.NewWriter(b)
		io.WriteString(qp, m.Body)
		qp.Close()
		b.WriteString("\r\n")
	}
	writeHTMLPart := func(b *bytes.Buffer) {
		b.WriteString("Content-Type: text/html; charset=utf-8\r\n")
		b.WriteString("Content-Transfer-Encoding: quoted-printable\r\n\r\n")
		qp := quotedprintable.NewWriter(b)
		io.WriteString(qp, m.HTMLBody)
		qp.Close()
		b.WriteString("\r\n")
	}
	writeAlternative := func(b *bytes.Buffer) {
		fmt.Fprintf(b, "Content-Type: multipart/alternative; boundary=%q\r\n\r\n", altBoundary)
		fmt.Fprintf(b, "--%s\r\n", altBoundary)
		writeTextPart(b)
		fmt.Fprintf(b, "--%s\r\n", altBoundary)
		writeHTMLPart(b)
		fmt.Fprintf(b, "--%s--\r\n", altBoundary)
	}

	switch {
	case len(m.Attachments) > 0:
		fmt.Fprintf(&b, "Content-Type: multipart/mixed; boundary=%q\r\n", boundary)
		b.WriteString("\r\n")
		fmt.Fprintf(&b, "--%s\r\n", boundary)
		if m.HTMLBody != "" {
			writeAlternative(&b)
		} else {
			writeTextPart(&b)
		}
		for _, a := range m.Attachments {
			fmt.Fprintf(&b, "--%s\r\n", boundary)
			ct := a.ContentType
			if ct == "" {
				ct = "application/octet-stream"
			}
			fmt.Fprintf(&b, "Content-Type: %s\r\n", ct)
			fmt.Fprintf(&b, "Content-Disposition: attachment; filename=%q\r\n", a.Filename)
			b.WriteString("Content-Transfer-Encoding: base64\r\n\r\n")
			writeBase64Wrapped(&b, a.Data)
		}
		fmt.Fprintf(&b, "--%s--\r\n", boundary)
	case m.HTMLBody != "":
		writeAlternative(&b)
	default:
		b.WriteString("Content-Type: text/plain; charset=utf-8\r\n")
		b.WriteString("\r\n")
		b.WriteString(toCRLF(m.Body))
		if !strings.HasSuffix(m.Body, "\n") {
			b.WriteString("\r\n")
		}
	}
	return b.Bytes()
}

func sanitizeHeaderValue(v string) string {
	v = strings.ReplaceAll(v, "\r", " ")
	return strings.ReplaceAll(v, "\n", " ")
}

func toCRLF(s string) string {
	s = strings.ReplaceAll(s, "\r\n", "\n")
	return strings.ReplaceAll(s, "\n", "\r\n")
}

func writeBase64Wrapped(b *bytes.Buffer, data []byte) {
	enc := base64.StdEncoding.EncodeToString(data)
	for len(enc) > 0 {
		n := 76
		if n > len(enc) {
			n = len(enc)
		}
		b.WriteString(enc[:n])
		b.WriteString("\r\n")
		enc = enc[n:]
	}
}

// Errors from Parse. They are deliberately static: the underlying
// net/mail and mime/multipart errors embed raw lines from the message
// ("got line %q"), and wrapping those would hand captured content to
// whatever log or error string the caller folds the failure into
// (Section 4.2.2's no-raw-bytes rule — machine-checked by keyleak).
var (
	ErrNoHeader           = errors.New("mailmsg: missing header section")
	ErrMalformedMultipart = errors.New("mailmsg: malformed multipart body")
	ErrBodyRead           = errors.New("mailmsg: reading body failed")
)

// Parse tokenizes raw wire bytes into header, body and attachments — the
// first stage of the processing pipeline in Figure 2.
func Parse(raw []byte) (*Message, error) {
	mr, err := mail.ReadMessage(bytes.NewReader(raw))
	if err != nil {
		return nil, ErrNoHeader
	}
	m := New()
	// net/mail lowercases nothing but gives map order; preserve a stable
	// order by sorting keys (original order is unrecoverable from the map).
	keys := make([]string, 0, len(mr.Header))
	for k := range mr.Header {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		for _, v := range mr.Header[k] {
			m.AddHeader(k, v)
		}
	}

	ct := m.Header("Content-Type")
	mediaType, params, err := mime.ParseMediaType(ct)
	switch {
	case err == nil && strings.HasPrefix(mediaType, "multipart/"):
		if err := m.parseMultipart(mr.Body, params["boundary"], 0); err != nil {
			return nil, err
		}
	case err == nil && mediaType == "text/html":
		body, rerr := io.ReadAll(decodeTransfer(mr.Body, m.Header("Content-Transfer-Encoding")))
		if rerr != nil {
			return nil, ErrBodyRead
		}
		m.HTMLBody = string(body)
	default:
		body, rerr := io.ReadAll(decodeTransfer(mr.Body, m.Header("Content-Transfer-Encoding")))
		if rerr != nil {
			return nil, ErrBodyRead
		}
		m.Body = string(body)
	}
	return m, nil
}

// maxMultipartDepth bounds nesting so adversarial mail can't recurse
// unboundedly.
const maxMultipartDepth = 4

// parseMultipart walks a multipart body, recursing into nested multipart
// parts (multipart/alternative inside multipart/mixed and the like).
func (m *Message) parseMultipart(r io.Reader, boundary string, depth int) error {
	if depth > maxMultipartDepth {
		return fmt.Errorf("%w: nesting exceeds %d", ErrMalformedMultipart, maxMultipartDepth)
	}
	pr := multipart.NewReader(r, boundary)
	for {
		part, err := pr.NextPart()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return ErrMalformedMultipart
		}
		pct, pparams, _ := mime.ParseMediaType(part.Header.Get("Content-Type"))
		if strings.HasPrefix(pct, "multipart/") {
			if err := m.parseMultipart(part, pparams["boundary"], depth+1); err != nil {
				return err
			}
			continue
		}
		data, err := io.ReadAll(decodeTransfer(part, part.Header.Get("Content-Transfer-Encoding")))
		if err != nil {
			return ErrBodyRead
		}
		fname := part.FileName()
		switch {
		case fname == "" && (pct == "" || strings.HasPrefix(pct, "text/plain")):
			if m.Body != "" {
				m.Body += "\n"
			}
			m.Body += string(data)
		case fname == "" && strings.HasPrefix(pct, "text/html"):
			if m.HTMLBody != "" {
				m.HTMLBody += "\n"
			}
			m.HTMLBody += string(data)
		default:
			if fname == "" {
				fname = "unnamed"
			}
			m.Attachments = append(m.Attachments, Attachment{
				Filename:    fname,
				ContentType: pct,
				Data:        data,
			})
		}
	}
}

// Text returns the best plain-text rendering of the message: the text
// body when present, otherwise the HTML body stripped of markup. This is
// what the filtering and sanitization layers consume.
func (m *Message) Text() string {
	if strings.TrimSpace(m.Body) != "" {
		return m.Body
	}
	if m.HTMLBody != "" {
		return StripHTML(m.HTMLBody)
	}
	return m.Body
}

func decodeTransfer(r io.Reader, encoding string) io.Reader {
	switch strings.ToLower(strings.TrimSpace(encoding)) {
	case "base64":
		return base64.NewDecoder(base64.StdEncoding, newB64Cleaner(r))
	case "quoted-printable":
		return quotedprintable.NewReader(r)
	default:
		return r
	}
}

// b64Cleaner strips CR/LF so wrapped base64 decodes.
type b64Cleaner struct{ r io.Reader }

func newB64Cleaner(r io.Reader) io.Reader { return &b64Cleaner{r} }

func (c *b64Cleaner) Read(p []byte) (int, error) {
	buf := make([]byte, len(p))
	for {
		n, err := c.r.Read(buf)
		j := 0
		for i := 0; i < n; i++ {
			if buf[i] == '\r' || buf[i] == '\n' {
				continue
			}
			p[j] = buf[i]
			j++
		}
		if j > 0 || err != nil {
			return j, err
		}
	}
}

// StripHTML removes markup from an HTML body for filter consumption — a
// light tag stripper; internal/extract.HTMLText does the richer job with
// script/style suppression for attachment processing.
func StripHTML(html string) string {
	var sb strings.Builder
	inTag := false
	for i := 0; i < len(html); i++ {
		switch c := html[i]; {
		case c == '<':
			inTag = true
		case c == '>':
			if inTag {
				inTag = false
				sb.WriteByte(' ')
			} else {
				sb.WriteByte(c)
			}
		case !inTag:
			sb.WriteByte(c)
		}
	}
	return htmlEntityReplacer.Replace(sb.String())
}

var htmlEntityReplacer = strings.NewReplacer(
	"&amp;", "&", "&lt;", "<", "&gt;", ">", "&quot;", `"`, "&nbsp;", " ", "&#39;", "'",
)

// Builder assembles common messages fluently.
type Builder struct{ m *Message }

// NewBuilder starts a message with the standard fields.
func NewBuilder(from, to, subject string) *Builder {
	m := New()
	m.SetHeader("From", from)
	m.SetHeader("To", to)
	m.SetHeader("Subject", subject)
	return &Builder{m: m}
}

// Date stamps the Date header in RFC 5322 format.
func (b *Builder) Date(t time.Time) *Builder {
	b.m.SetHeader("Date", t.Format(time.RFC1123Z))
	return b
}

// MessageID sets the Message-Id header.
func (b *Builder) MessageID(id string) *Builder {
	b.m.SetHeader("Message-Id", fmt.Sprintf("<%s>", id))
	return b
}

// Header sets an arbitrary header.
func (b *Builder) Header(key, value string) *Builder {
	b.m.SetHeader(key, value)
	return b
}

// Body sets the text body.
func (b *Builder) Body(text string) *Builder {
	b.m.Body = text
	return b
}

// HTML sets the HTML alternative body.
func (b *Builder) HTML(html string) *Builder {
	b.m.HTMLBody = html
	return b
}

// Attach appends an attachment.
func (b *Builder) Attach(filename, contentType string, data []byte) *Builder {
	b.m.Attachments = append(b.m.Attachments, Attachment{Filename: filename, ContentType: contentType, Data: data})
	return b
}

// Build returns the assembled message.
func (b *Builder) Build() *Message { return b.m }
