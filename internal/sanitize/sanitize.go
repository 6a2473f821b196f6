// Package sanitize implements the study's sensitive-information filter
// (Section 4.2.2, Figure 2): regular-expression detection of personal
// identifiers — with the HIPAA identifier list as the baseline — followed
// by redaction. Matches are replaced by salted hashes wrapped in the
// *_|R|_* sentinel visible in the paper's Figure 2, and as an added
// precaution every remaining digit is replaced by a zero before storage.
//
// The same detectors drive two analyses: Table 2 (precision/sensitivity
// of each detector against a labeled corpus) and Figure 6 (which kinds of
// sensitive information each typo domain receives).
package sanitize

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"strings"

	"repro/internal/match"
)

// Kind identifies a category of sensitive information (Table 2 rows).
type Kind string

// The Table 2 identifier categories.
const (
	KindCreditCard Kind = "creditcard"
	KindSSN        Kind = "ssn"
	KindEIN        Kind = "ein"
	KindPassword   Kind = "password"
	KindVIN        Kind = "vin"
	KindUsername   Kind = "username"
	KindZip        Kind = "zip"
	KindIDNumber   Kind = "idnumber"
	KindEmail      Kind = "email"
	KindPhone      Kind = "phone"
	KindDate       Kind = "date"
)

// AllKinds lists every detector in Table 2's order.
func AllKinds() []Kind {
	return []Kind{
		KindCreditCard, KindSSN, KindEIN, KindPassword, KindVIN,
		KindUsername, KindZip, KindIDNumber, KindEmail, KindPhone, KindDate,
	}
}

// Finding is one detected identifier.
type Finding struct {
	Kind  Kind
	Match string
	Start int // byte offset in the scanned text
	End   int
	Label string // redaction label; for credit cards this is the brand
}

// detector pairs a regex with semantic validation.
type detector struct {
	kind    Kind
	pattern string
	// validate may reject a syntactic match; nil accepts all. It returns
	// the redaction label.
	validate func(groups []string) (string, bool)
	// group selects which capture group is the sensitive span; 0 = whole.
	group int
	// engGate is a cheap necessary condition checked before the engine's
	// matches for this pattern are confirmed: a literal byte, digit count
	// or alphanumeric run the pattern cannot match without, read from one
	// computeSlimStats pass. It may only return false when the pattern
	// provably cannot match; nil means "always query". Keyword conditions
	// are left to the engine's literal prefilter.
	engGate func(st *textStats) bool
}

// textStats summarizes one pass over the scanned text with the byte
// classes the engGates read. Every field feeds a *necessary* condition:
// gates compare against regex structure (literal bytes, mandatory digit
// counts and runs), never against anything a regex could match without.
type textStats struct {
	hasAt      bool // '@'
	hasDash    bool // '-'
	hasSlash   bool // '/'
	digits     int  // total ASCII digit count
	maxDigRun  int  // longest run of consecutive digits
	maxAlnmRun int  // longest run of consecutive ASCII alphanumerics
}

// computeSlimStats fills textStats in one allocation-free pass.
func computeSlimStats(text string) textStats {
	var st textStats
	digRun, alnmRun := 0, 0
	for i := 0; i < len(text); i++ {
		c := text[i]
		switch c {
		case '@':
			st.hasAt = true
		case '-':
			st.hasDash = true
		case '/':
			st.hasSlash = true
		}
		if c >= '0' && c <= '9' {
			st.digits++
			digRun++
			if digRun > st.maxDigRun {
				st.maxDigRun = digRun
			}
		} else {
			digRun = 0
		}
		if c >= '0' && c <= '9' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' {
			alnmRun++
			if alnmRun > st.maxAlnmRun {
				st.maxAlnmRun = alnmRun
			}
		} else {
			alnmRun = 0
		}
	}
	return st
}

var detectors = buildDetectors()

// engine compiles every detector pattern into one shared-prefilter
// multi-pattern engine; pattern id i is detectors[i]. It is the only
// compiled form of the patterns; the tests hold it to their stdlib
// regexps.
var engine = buildEngine()

func buildEngine() *match.Engine {
	pats := make([]string, len(detectors))
	for i := range detectors {
		pats[i] = detectors[i].pattern
	}
	return match.MustCompile(pats...)
}

func buildDetectors() []detector {
	ds := []detector{
		{
			kind:    KindEmail,
			pattern: (`[A-Za-z0-9._%+\-]+@[A-Za-z0-9.\-]+\.[A-Za-z]{2,}`),
			engGate: func(st *textStats) bool { return st.hasAt },
			validate: func([]string) (string, bool) {
				return "email", true
			},
		},
		{
			kind:    KindCreditCard,
			pattern: (`\b(?:\d[ \-]?){13,19}\b`),
			engGate: func(st *textStats) bool { return st.digits >= 13 },
			validate: func(groups []string) (string, bool) {
				digits := digitsOnly(groups[0])
				if len(digits) < 13 || len(digits) > 19 || !luhnValid(digits) {
					return "", false
				}
				// All zeros passes Luhn trivially — and is exactly what the
				// digit-zeroing redaction step leaves behind. Not a card.
				if strings.Trim(digits, "0") == "" {
					return "", false
				}
				return CardBrand(digits), true
			},
		},
		{
			kind:    KindSSN,
			pattern: (`\b(\d{3})-(\d{2})-(\d{4})\b`),
			engGate: func(st *textStats) bool { return st.digits >= 9 && st.hasDash },
			validate: func(groups []string) (string, bool) {
				area := groups[1]
				if area == "000" || area == "666" || area >= "900" {
					return "", false
				}
				if groups[2] == "00" || groups[3] == "0000" {
					return "", false
				}
				return "ssn", true
			},
		},
		{
			kind:    KindEIN,
			pattern: (`\b(\d{2})-(\d{7})\b`),
			engGate: func(st *textStats) bool { return st.digits >= 9 && st.hasDash },
			validate: func(groups []string) (string, bool) {
				return "ein", true
			},
		},
		{
			kind:    KindPassword,
			pattern: (`(?i)\b(?:password|passwd|pwd|passphrase)\s*(?:is|:|=)?\s*(\S{3,})`),
			group:   1,
			validate: func(groups []string) (string, bool) {
				if strings.Contains(groups[1], redactSentinel) {
					return "", false // already-redacted value
				}
				// Reject prose continuations ("password reset", "password for").
				switch strings.ToLower(strings.Trim(groups[1], ".,;!?")) {
				case "reset", "for", "and", "was", "has", "will", "must", "should",
					"change", "changed", "protected", "required", "policy", "the", "your":
					return "", false
				}
				return "password", true
			},
		},
		{
			kind:    KindVIN,
			pattern: (`\b[A-HJ-NPR-Za-hj-npr-z0-9]{17}\b`),
			// A match is 17 consecutive ASCII alphanumerics.
			engGate: func(st *textStats) bool { return st.maxAlnmRun >= 17 },
			validate: func(groups []string) (string, bool) {
				if !vinValid(strings.ToUpper(groups[0])) {
					return "", false
				}
				return "vin", true
			},
		},
		{
			kind:    KindUsername,
			pattern: (`(?i)\b(?:username|user name|login|user id|userid)\s*(?:is|:|=)?\s*(\S{2,})`),
			group:   1,
			validate: func(groups []string) (string, bool) {
				if strings.Contains(groups[1], redactSentinel) {
					return "", false // already-redacted value
				}
				switch strings.ToLower(strings.Trim(groups[1], ".,;!?")) {
				case "and", "or", "for", "is", "was", "will", "the", "your":
					return "", false
				}
				return "username", true
			},
		},
		{
			kind: KindZip,
			// Context-anchored: either "zip[code]: 12345" or a state
			// abbreviation before it ("Pittsburgh, PA 15213[-1234]").
			pattern: (`(?i)(?:\bzip(?:\s*code)?\s*(?:is|:|=)?\s*|,\s*[A-Z]{2}\s+)(\d{5}(?:-\d{4})?)\b`),
			group:   1,
			// The capture group needs five consecutive digits.
			engGate: func(st *textStats) bool { return st.maxDigRun >= 5 },
			validate: func(groups []string) (string, bool) {
				return "zip", true
			},
		},
		{
			kind:    KindIDNumber,
			pattern: (`(?i)\b(?:id|identification|member|account|case|employee|record|mrn|policy)\s*(?:number|num|no\.?|#)?\s*(?:is|:|=)\s*([A-Za-z0-9\-]{4,})`),
			group:   1,
			validate: func(groups []string) (string, bool) {
				if strings.Contains(groups[1], redactSentinel) {
					return "", false // already-redacted value
				}
				return "idnumber", true
			},
		},
		{
			kind:    KindPhone,
			pattern: (`(?:\+?1[\-. ]?)?(?:\(\d{3}\)\s?|\d{3}[\-. ])\d{3}[\-. ]\d{4}\b`),
			engGate: func(st *textStats) bool { return st.digits >= 10 },
			validate: func(groups []string) (string, bool) {
				return "phone", true
			},
		},
		{
			kind: KindDate,
			pattern: (`(?i)\b(?:\d{1,2}[/\-]\d{1,2}[/\-]\d{2,4}` +
				`|\d{4}-\d{2}-\d{2}` +
				`|(?:jan|feb|mar|apr|may|jun|jul|aug|sep|oct|nov|dec)[a-z]*\.?\s+\d{1,2}(?:st|nd|rd|th)?,?\s+\d{4})\b`),
			// Numeric forms need >= 4 digits plus a separator; the month-name
			// form needs >= 5 digits (day + year), its month keyword being
			// left to the engine's literal prefilter.
			engGate: func(st *textStats) bool {
				return st.digits >= 4 && (st.hasSlash || st.hasDash) || st.digits >= 5
			},
			validate: func(groups []string) (string, bool) {
				return "date", true
			},
		},
	}
	return ds
}

// Scan detects all sensitive identifiers in text. Overlapping findings of
// different kinds are all reported (an email address inside a username
// assignment is both). Duplicate (kind, span) pairs cannot arise: each
// kind has one regex, FindAll matches of one regex never overlap, and a
// capture group's span lies inside its match's span — so group spans are
// distinct across a detector's matches.
//
// All detectors share one multi-pattern engine pass (internal/match):
// a single scan of the text collects candidate positions for every
// pattern, and each detector whose engGate holds then confirms its
// candidates. The result equals that of running each detector's stdlib
// regexp over the whole text, by construction: the engine's FindAll is
// proven equivalent to the regexp's FindAll (internal/match
// differential suite), engGate only skips a pattern that cannot match,
// and validation, group selection and ordering are the same code.
func Scan(text string) []Finding {
	st := computeSlimStats(text)
	var out []Finding
	var gbuf [4]string // widest detector has 3 capture groups + whole
	s := engine.Scan(text)
	for i := range detectors {
		d := &detectors[i]
		if d.engGate != nil && !d.engGate(&st) {
			continue
		}
		s.FindAll(i, func(idx []int) bool {
			groups := submatchInto(gbuf[:0], text, idx)
			label, ok := "", true
			if d.validate != nil {
				label, ok = d.validate(groups)
			}
			if ok {
				gs, ge := idx[2*d.group], idx[2*d.group+1]
				out = append(out, Finding{
					Kind: d.kind, Match: text[gs:ge], Start: gs, End: ge, Label: label,
				})
			}
			return true
		})
	}
	s.Release()
	sortFindings(out)
	return out
}

// sortFindings orders findings by start offset then kind — the Scan
// contract. Ties are impossible (one regex per kind, non-overlapping
// matches per regex), so the order is total and deterministic.
func sortFindings(out []Finding) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Kind < out[j].Kind
	})
}

// KindBit returns ScanKinds' bit for kind k (detector index order).
func KindBit(k Kind) uint16 {
	for i := range detectors {
		if detectors[i].kind == k {
			return 1 << uint(i)
		}
	}
	return 0
}

// ScanKinds is Scan reduced to per-kind presence booleans, returned as
// a bitmask of KindBit values. Each detector stops at its first
// validated finding, so presence queries (Table 2 scoring, Figure 6
// tallies) do not pay for full enumeration.
func ScanKinds(text string) uint16 {
	st := computeSlimStats(text)
	var mask uint16
	var gbuf [4]string
	s := engine.Scan(text)
	for i := range detectors {
		d := &detectors[i]
		if d.engGate != nil && !d.engGate(&st) {
			continue
		}
		s.FindAll(i, func(idx []int) bool {
			if d.validate != nil {
				if _, ok := d.validate(submatchInto(gbuf[:0], text, idx)); !ok {
					return true // rejected; keep scanning this detector
				}
			}
			mask |= 1 << uint(i)
			return false // one validated finding proves presence
		})
	}
	s.Release()
	return mask
}

// Kinds returns the distinct kinds present in findings.
func Kinds(findings []Finding) []Kind {
	set := map[Kind]bool{}
	for _, f := range findings {
		set[f.Kind] = true
	}
	out := make([]Kind, 0, len(set))
	for _, k := range AllKinds() {
		if set[k] {
			out = append(out, k)
		}
	}
	return out
}

// Sanitizer redacts findings using a salted hash, so equal identifiers
// redact to equal tokens (allowing frequency analysis on redacted data)
// without being reversible.
type Sanitizer struct {
	salt []byte
}

// New creates a Sanitizer with the given salt. The paper keeps the salt
// (like the encryption key) off the collection server.
func New(salt string) *Sanitizer { return &Sanitizer{salt: []byte(salt)} }

// redactSentinel brackets every redaction token (visible in the paper's
// Figure 2 as *_|R|_*americanexpress*000...*_|R|_*).
const redactSentinel = "*_|R|_*"

// hashToken returns the redaction token for a match.
func (s *Sanitizer) hashToken(label, match string) string {
	h := sha256.New()
	h.Write(s.salt)
	h.Write([]byte(match))
	var sum [sha256.Size]byte
	var hexBuf [16]byte
	hex.Encode(hexBuf[:], h.Sum(sum[:0])[:8])
	return redactSentinel + label + "*" + string(hexBuf[:]) + redactSentinel
}

// Redact replaces every finding in text with its salted-hash token and
// then zeroes all remaining digits — the two-step scrubbing of
// Section 4.2.2. It returns the cleaned text and the findings.
func (s *Sanitizer) Redact(text string) (string, []Finding) {
	return s.redact(text, Scan(text))
}

func (s *Sanitizer) redact(text string, findings []Finding) (string, []Finding) {
	// Replace back-to-front so offsets stay valid; skip spans contained in
	// an already-replaced region.
	type span struct {
		start, end int
		token      string
	}
	spans := make([]span, 0, len(findings))
	covered := func(st, en int) bool {
		for _, sp := range spans {
			if st < sp.end && en > sp.start {
				return true
			}
		}
		return false
	}
	// Longer spans first so e.g. the credit card swallows the date-like
	// fragment inside it.
	byLen := append([]Finding(nil), findings...)
	sort.Slice(byLen, func(i, j int) bool {
		li, lj := byLen[i].End-byLen[i].Start, byLen[j].End-byLen[j].Start
		if li != lj {
			return li > lj
		}
		return byLen[i].Start < byLen[j].Start
	})
	for _, f := range byLen {
		if covered(f.Start, f.End) {
			continue
		}
		spans = append(spans, span{f.Start, f.End, s.hashToken(f.Label, f.Match)})
	}
	// Splice all replacements in one left-to-right pass; spans never
	// overlap (covered rejected them), so this equals the back-to-front
	// repeated-concat result without the quadratic copying.
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	var sb strings.Builder
	sb.Grow(len(text) + len(spans)*(2*len(redactSentinel)+24))
	pos := 0
	for _, sp := range spans {
		sb.WriteString(text[pos:sp.start])
		sb.WriteString(sp.token)
		pos = sp.end
	}
	sb.WriteString(text[pos:])
	return zeroDigitsOutsideTokens(sb.String()), findings
}

// zeroDigitsOutsideTokens zeroes every digit not inside a *_|R|_* token.
func zeroDigitsOutsideTokens(text string) string {
	const sentinel = redactSentinel
	var sb strings.Builder
	sb.Grow(len(text))
	inToken := false
	for i := 0; i < len(text); i++ {
		if strings.HasPrefix(text[i:], sentinel) {
			inToken = !inToken
			sb.WriteString(sentinel)
			i += len(sentinel) - 1
			continue
		}
		c := text[i]
		if !inToken && c >= '0' && c <= '9' {
			sb.WriteByte('0')
		} else {
			sb.WriteByte(c)
		}
	}
	return sb.String()
}

// ---------------------------------------------------------------------
// Validators

func digitsOnly(s string) string {
	var sb strings.Builder
	for _, r := range s {
		if r >= '0' && r <= '9' {
			sb.WriteRune(r)
		}
	}
	return sb.String()
}

// luhnValid implements the Luhn checksum used by payment cards.
func luhnValid(digits string) bool {
	sum := 0
	double := false
	for i := len(digits) - 1; i >= 0; i-- {
		d := int(digits[i] - '0')
		if double {
			d *= 2
			if d > 9 {
				d -= 9
			}
		}
		sum += d
		double = !double
	}
	return sum%10 == 0
}

// CardBrand classifies a card number by its issuer prefix — the labels of
// Figure 6's heatmap rows (mastercard, jcb, dinersclub, ...).
func CardBrand(digits string) string {
	switch {
	case len(digits) == 15 && (strings.HasPrefix(digits, "34") || strings.HasPrefix(digits, "37")):
		return "americanexpress"
	case strings.HasPrefix(digits, "4"):
		return "visa"
	case len(digits) >= 2 && digits[0] == '5' && digits[1] >= '1' && digits[1] <= '5':
		return "mastercard"
	case strings.HasPrefix(digits, "6011") || strings.HasPrefix(digits, "65"):
		return "discover"
	case strings.HasPrefix(digits, "35"):
		return "jcb"
	case strings.HasPrefix(digits, "300") || strings.HasPrefix(digits, "301") ||
		strings.HasPrefix(digits, "302") || strings.HasPrefix(digits, "303") ||
		strings.HasPrefix(digits, "304") || strings.HasPrefix(digits, "305") ||
		strings.HasPrefix(digits, "36") || strings.HasPrefix(digits, "38"):
		return "dinersclub"
	default:
		return "card"
	}
}

// vinTranslit maps VIN characters to their check-digit values.
var vinTranslit = map[byte]int{
	'A': 1, 'B': 2, 'C': 3, 'D': 4, 'E': 5, 'F': 6, 'G': 7, 'H': 8,
	'J': 1, 'K': 2, 'L': 3, 'M': 4, 'N': 5, 'P': 7, 'R': 9,
	'S': 2, 'T': 3, 'U': 4, 'V': 5, 'W': 6, 'X': 7, 'Y': 8, 'Z': 9,
	'0': 0, '1': 1, '2': 2, '3': 3, '4': 4, '5': 5, '6': 6, '7': 7, '8': 8, '9': 9,
}

var vinWeights = []int{8, 7, 6, 5, 4, 3, 2, 10, 0, 9, 8, 7, 6, 5, 4, 3, 2}

// vinValid checks a 17-character VIN's check digit (position 9).
func vinValid(vin string) bool {
	if len(vin) != 17 {
		return false
	}
	// All-digit strings are far more likely to be something else.
	if digitsOnly(vin) == vin {
		return false
	}
	// Long runs of one character never appear in real VINs but do appear
	// in zero-redacted text, where they would re-trigger detection.
	run, prev := 1, byte(0)
	for i := 0; i < len(vin); i++ {
		if vin[i] == prev {
			run++
			if run >= 7 {
				return false
			}
		} else {
			run, prev = 1, vin[i]
		}
	}
	sum := 0
	for i := 0; i < 17; i++ {
		v, ok := vinTranslit[vin[i]]
		if !ok {
			return false
		}
		sum += v * vinWeights[i]
	}
	rem := sum % 11
	check := byte('0' + rem)
	if rem == 10 {
		check = 'X'
	}
	return vin[8] == check
}

// ComputeVINCheckDigit fills in the check digit for a 17-char VIN
// skeleton, used by the corpus generator to plant valid VINs.
func ComputeVINCheckDigit(vin string) (string, bool) {
	if len(vin) != 17 {
		return "", false
	}
	up := strings.ToUpper(vin)
	sum := 0
	for i := 0; i < 17; i++ {
		if i == 8 {
			continue
		}
		v, ok := vinTranslit[up[i]]
		if !ok {
			return "", false
		}
		sum += v * vinWeights[i]
	}
	rem := sum % 11
	check := byte('0' + rem)
	if rem == 10 {
		check = 'X'
	}
	return up[:8] + string(check) + up[9:], true
}

// LuhnComplete appends the Luhn check digit to a partial card number,
// for the corpus generator.
func LuhnComplete(partial string) string {
	for d := byte('0'); d <= '9'; d++ {
		cand := partial + string(d)
		if luhnValid(cand) {
			return cand
		}
	}
	return partial + "0" // unreachable: some digit always satisfies Luhn
}

// submatchInto fills dst (reused across matches) with the submatch
// strings for one FindAllStringSubmatchIndex entry.
func submatchInto(dst []string, text string, idx []int) []string {
	for i := 0; i < len(idx); i += 2 {
		s := ""
		if idx[i] >= 0 {
			s = text[idx[i]:idx[i+1]]
		}
		dst = append(dst, s)
	}
	return dst
}
