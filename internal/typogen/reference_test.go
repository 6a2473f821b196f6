package typogen

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/distance"
)

// generateReference is the straightforward map-based implementation the
// allocation-lean Generate replaced; kept as an executable specification.
func generateReference(target string, opts Options) []Typo {
	sld := distance.SLD(target)
	tld := distance.TLD(target)
	if sld == "" {
		return nil
	}
	seen := make(map[string]Typo)
	emit := func(label string, op distance.EditOp, pos int) {
		if !validLabel(label) || label == sld {
			return
		}
		domain := label
		if tld != "" {
			domain = label + "." + tld
		}
		if _, dup := seen[domain]; dup {
			return
		}
		ff := distance.IsFatFinger1(sld, label)
		if opts.FatFingerOnly && !ff {
			return
		}
		vis, _ := distance.VisualEditCost(sld, label)
		if opts.MaxVisual > 0 && vis > opts.MaxVisual {
			return
		}
		seen[domain] = Typo{
			Target: target, Domain: domain,
			Op: op, Position: pos, FatFinger: ff, Visual: vis,
		}
	}

	rs := []rune(sld)
	if opts.Deletions {
		for i := range rs {
			emit(string(rs[:i])+string(rs[i+1:]), distance.OpDeletion, i)
		}
	}
	if opts.Transpositions {
		for i := 0; i+1 < len(rs); i++ {
			if rs[i] == rs[i+1] {
				continue
			}
			t := append([]rune(nil), rs...)
			t[i], t[i+1] = t[i+1], t[i]
			emit(string(t), distance.OpTransposition, i)
		}
	}
	if opts.Substitutions {
		for i := range rs {
			for _, c := range alphabet {
				if c == rs[i] {
					continue
				}
				t := append([]rune(nil), rs...)
				t[i] = c
				emit(string(t), distance.OpSubstitution, i)
			}
		}
	}
	if opts.Additions {
		for i := 0; i <= len(rs); i++ {
			for _, c := range alphabet {
				emit(string(rs[:i])+string(c)+string(rs[i:]), distance.OpAddition, i)
			}
		}
	}

	out := make([]Typo, 0, len(seen))
	for _, t := range seen {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Domain < out[j].Domain })
	return out
}

// TestGenerateMatchesReference pins the buffer-reusing, sort-deduped
// Generate to the reference semantics — same set, same order, same
// Op/Position winner for colliding domains — across targets and option
// combinations.
func TestGenerateMatchesReference(t *testing.T) {
	targets := []string{
		"gmail.com", "aol.com", "yahoo.co.uk", "x.org", "a-b.net",
		"outlook", "ab.com", "ümlaut.com", "10minutemail.com",
	}
	optsList := []Options{
		AllOps(),
		{Deletions: true},
		{Additions: true, Transpositions: true},
		{Additions: true, Deletions: true, Substitutions: true, Transpositions: true, FatFingerOnly: true},
		{Additions: true, Deletions: true, Substitutions: true, Transpositions: true, MaxVisual: 0.5},
	}
	for _, target := range targets {
		for _, opts := range optsList {
			got := Generate(target, opts)
			want := generateReference(target, opts)
			if len(got) == 0 && len(want) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("Generate(%q, %+v) diverges from reference: %d vs %d typos",
					target, opts, len(got), len(want))
			}
		}
	}
}

// FuzzGenerate diffs Generate against generateReference on arbitrary
// targets; the low six bits of opts pick the edit classes and filters.
func FuzzGenerate(f *testing.F) {
	for _, target := range []string{
		"gmail.com", "yahoo.co.uk", "a-b.net", "outlook", "ümlaut.com",
		"10minutemail.com", "bookkeeper.net", "GMail.com", "x.\xff", "-a-.",
	} {
		f.Add(target, uint8(0x0f))
	}
	f.Fuzz(func(t *testing.T, target string, bits uint8) {
		if len(target) > 80 {
			return // the reference is quadratic per target; keep runs fast
		}
		opts := Options{
			Additions:      bits&1 != 0,
			Deletions:      bits&2 != 0,
			Substitutions:  bits&4 != 0,
			Transpositions: bits&8 != 0,
			FatFingerOnly:  bits&16 != 0,
		}
		if bits&32 != 0 {
			opts.MaxVisual = 0.4
		}
		got, want := Generate(target, opts), generateReference(target, opts)
		if len(got) == 0 && len(want) == 0 {
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Generate(%q, %+v) diverges from reference: %d vs %d typos", target, opts, len(got), len(want))
		}
	})
}
