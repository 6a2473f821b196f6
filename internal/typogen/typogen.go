// Package typogen generates typo domain names ("gtypos") from target
// domains, following the taxonomy of Szurdi et al. adopted by the paper
// (Section 3):
//
//   - generated typo domains (gtypos): names lexically similar (DL-1) to a
//     target;
//   - candidate typo domains (ctypos): the registered subset of gtypos;
//   - typosquatting domains: ctypos registered by a different entity to
//     capture the target's traffic.
//
// Beyond plain DL-1 edits the package generates the special families the
// paper studies: fat-finger-1 typos (Section 4.2.1's registration
// strategy), missing-dot "doppelganger" names (ca.ibm.com -> caibm.com,
// from the Godai white paper discussed in Section 2), and deliberate
// smtp/mail service-prefix typos (smtpgmail.com for smtp.gmail.com,
// Section 5.2).
package typogen

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"repro/internal/distance"
)

// alphabet is the set of characters legal inside a DNS label.
const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789-"

// Typo describes one generated typo domain and how it relates to its
// target.
type Typo struct {
	Target string // the legitimate domain, e.g. "gmail.com"
	Domain string // the typo domain, e.g. "gmial.com"

	Op        distance.EditOp // which DL-1 class produced it
	Position  int             // index in the target SLD where the edit occurred
	FatFinger bool            // whether the edit is a fat-finger (QWERTY-adjacent) mistake
	Visual    float64         // visual distance of the edit (Section 3 heuristic)
}

func (t Typo) String() string {
	return fmt.Sprintf("%s -> %s (%s@%d ff=%v vis=%.2f)", t.Target, t.Domain, t.Op, t.Position, t.FatFinger, t.Visual)
}

// Options selects which typo families Generate emits.
type Options struct {
	Additions      bool
	Deletions      bool
	Substitutions  bool
	Transpositions bool

	FatFingerOnly bool    // keep only FF-1 typos (the paper's registration filter)
	MaxVisual     float64 // if > 0, keep only typos with Visual <= MaxVisual
}

// AllOps returns Options with every DL-1 class enabled.
func AllOps() Options {
	return Options{Additions: true, Deletions: true, Substitutions: true, Transpositions: true}
}

// Generate returns the deduplicated set of gtypos of target under opts,
// sorted by domain name. The TLD is held fixed; only the second-level
// label is mutated, mirroring the paper's methodology. The target itself
// and syntactically invalid labels (leading/trailing hyphen, empty) are
// excluded.
func Generate(target string, opts Options) []Typo {
	sld := distance.SLD(target)
	tld := distance.TLD(target)
	if sld == "" {
		return nil
	}
	rs := []rune(sld)

	// Upper bound on raw candidates: deletions + transpositions +
	// substitutions + additions.
	n := len(rs)
	capEst := n + n + n*len(alphabet) + (n+1)*len(alphabet)
	// A candidate keeps the edit that made it (op at pos, rune r), from
	// which distance.EditFacts works out its fat-finger flag and visual
	// cost.
	type cand struct {
		domain string
		pos    int32
		r      rune
		op     distance.EditOp
	}
	cands := make([]cand, 0, capEst)

	// Every valid label is ASCII, so the domain is built byte by byte in
	// one reused buffer: the only per-candidate allocation is the domain
	// string itself. No edit below reproduces the target: substitutions
	// and transpositions skip equal runes, and the others change length.
	domBuf := make([]byte, 0, n+2+len(tld))
	add := func(label []rune, op distance.EditOp, pos int, r rune) {
		if !validLabelRunes(label) {
			return
		}
		domBuf = domBuf[:0]
		for _, c := range label {
			domBuf = append(domBuf, byte(c))
		}
		if tld != "" {
			domBuf = append(domBuf, '.')
			domBuf = append(domBuf, tld...)
		}
		cands = append(cands, cand{domain: string(domBuf), pos: int32(pos), r: r, op: op})
	}

	if opts.Deletions {
		buf := make([]rune, n-1)
		for i := range rs {
			copy(buf, rs[:i])
			copy(buf[i:], rs[i+1:])
			add(buf, distance.OpDeletion, i, 0)
		}
	}
	if opts.Transpositions {
		buf := make([]rune, n)
		for i := 0; i+1 < n; i++ {
			if rs[i] == rs[i+1] {
				continue
			}
			copy(buf, rs)
			buf[i], buf[i+1] = buf[i+1], buf[i]
			add(buf, distance.OpTransposition, i, 0)
		}
	}
	if opts.Substitutions {
		buf := make([]rune, n)
		copy(buf, rs)
		for i := range rs {
			for _, c := range alphabet {
				if c == rs[i] {
					continue
				}
				buf[i] = c
				add(buf, distance.OpSubstitution, i, c)
			}
			buf[i] = rs[i]
		}
	}
	if opts.Additions {
		buf := make([]rune, n+1)
		for i := 0; i <= n; i++ {
			copy(buf, rs[:i])
			copy(buf[i+1:], rs[i:])
			for _, c := range alphabet {
				buf[i] = c
				add(buf, distance.OpAddition, i, c)
			}
		}
	}

	// Sort-based dedupe replacing the old map: sorting the emission
	// indices by (domain, index) keeps duplicates in emission order, so
	// taking the first of each group preserves the map's
	// first-emission-wins Op/Position choice. Duplicates share their
	// label, hence their fat-finger and visual facts, so filtering after
	// dedupe is equivalent to the old filter-then-insert order and does
	// strictly less work.
	order := make([]int32, len(cands))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		if c := strings.Compare(cands[a].domain, cands[b].domain); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	out := make([]Typo, 0, len(cands))
	prev := ""
	for _, i := range order {
		c := &cands[i]
		if c.domain == prev {
			continue
		}
		prev = c.domain
		ff, vis := distance.EditFacts(rs, c.op, int(c.pos), c.r)
		if opts.FatFingerOnly && !ff {
			continue
		}
		if opts.MaxVisual > 0 && vis > opts.MaxVisual {
			continue
		}
		out = append(out, Typo{
			Target: target, Domain: c.domain,
			Op: c.op, Position: int(c.pos), FatFinger: ff, Visual: vis,
		})
	}
	return out
}

// GenerateAll is Generate with every DL-1 class enabled.
func GenerateAll(target string) []Typo { return Generate(target, AllOps()) }

// MissingDot returns the doppelganger domain obtained by deleting the dot
// between a subdomain and its parent (ca.ibm.com -> caibm.com), or
// ok=false when the name has no eligible subdomain.
func MissingDot(fqdn string) (string, bool) {
	fqdn = strings.TrimSuffix(fqdn, ".")
	parts := strings.Split(fqdn, ".")
	if len(parts) < 3 {
		return "", false
	}
	return parts[0] + strings.Join(parts[1:], "."), true
}

// ServicePrefixTypos returns the deliberate service-prefix typos the paper
// hunts for in Section 5.2: smtpgmail.com targeting smtp.gmail.com and
// mailgoogle.com targeting mail.google.com, for each of the given
// prefixes (typically "smtp", "mail", "webmail", "mx").
func ServicePrefixTypos(target string, prefixes []string) []Typo {
	sld := distance.SLD(target)
	tld := distance.TLD(target)
	if sld == "" || tld == "" {
		return nil
	}
	out := make([]Typo, 0, len(prefixes))
	for _, p := range prefixes {
		label := p + sld
		if !validLabel(label) {
			continue
		}
		out = append(out, Typo{
			Target: target,
			Domain: label + "." + tld,
			Op:     distance.OpOther, // not a DL-1 mistake: a deliberate registration
			Visual: distance.Visual(sld, label),
		})
	}
	return out
}

// CountByOp tallies typos per edit class, the breakdown behind Figure 9.
func CountByOp(typos []Typo) map[distance.EditOp]int {
	m := make(map[distance.EditOp]int)
	for _, t := range typos {
		m[t.Op]++
	}
	return m
}

// GtypoCount returns the number of distinct DL-1 gtypos of target,
// without materializing per-typo metadata (used for the "millions of
// gtypos of the top 10,000" scale argument of Section 4.2.1).
func GtypoCount(target string) int { return len(GenerateAll(target)) }

// validLabel enforces DNS label syntax: 1-63 chars from the label
// alphabet, no leading or trailing hyphen.
func validLabel(s string) bool {
	return validLabelRunes([]rune(s))
}

// validLabelRunes is validLabel on a rune slice, so candidate labels can
// be rejected before any string is allocated. The length limit stays in
// bytes: every alphabet rune is one byte, and any non-ASCII rune fails
// the alphabet test anyway.
func validLabelRunes(rs []rune) bool {
	if len(rs) == 0 || len(rs) > 63 {
		return false
	}
	if rs[0] == '-' || rs[len(rs)-1] == '-' {
		return false
	}
	for _, r := range rs {
		if !inAlphabet(r) {
			return false
		}
	}
	return true
}

// inAlphabet reports whether r is in alphabet.
func inAlphabet(r rune) bool {
	return r >= 'a' && r <= 'z' || r >= '0' && r <= '9' || r == '-'
}

// Registry answers "is this gtypo registered?" — the predicate that turns
// gtypos into ctypos. Implementations range from the simulated ecosystem
// to a real zone-file snapshot.
type Registry interface {
	Registered(domain string) bool
}

// Ctypos filters gtypos down to the registered subset, per the taxonomy.
func Ctypos(gtypos []Typo, reg Registry) []Typo {
	out := make([]Typo, 0, len(gtypos))
	for _, t := range gtypos {
		if reg.Registered(t.Domain) {
			out = append(out, t)
		}
	}
	return out
}

// MapRegistry is a Registry backed by an in-memory set.
type MapRegistry map[string]bool

// Registered implements Registry.
func (m MapRegistry) Registered(domain string) bool { return m[domain] }
