package distance_test

import (
	"slices"
	"testing"

	"repro/internal/alexa"
	"repro/internal/distance"
	"repro/internal/ecosys"
)

// edit is one DL-1 edit of a target SLD and the typo it makes.
type edit struct {
	op   distance.EditOp
	pos  int
	r    rune
	typo string
}

// editRunes are the runes substitutions and additions try: typogen's
// label alphabet plus an upper-case letter, a non-ASCII letter and a
// dot, none of which typogen emits.
const editRunes = "abcdefghijklmnopqrstuvwxyz0123456789-Aü."

// dl1Edits enumerates every edit EditFacts accepts on target: each
// deletion, each transposition of two different runes, each
// substitution by a different rune and each addition, at every
// position. Edits that make the same typo are all kept.
func dl1Edits(target []rune) []edit {
	var out []edit
	emit := func(op distance.EditOp, pos int, r rune, typo []rune) {
		out = append(out, edit{op, pos, r, string(typo)})
	}
	for i := range target {
		emit(distance.OpDeletion, i, 0, slices.Delete(slices.Clone(target), i, i+1))
	}
	for i := 0; i+1 < len(target); i++ {
		if target[i] != target[i+1] {
			t := slices.Clone(target)
			t[i], t[i+1] = t[i+1], t[i]
			emit(distance.OpTransposition, i, 0, t)
		}
	}
	for _, r := range editRunes {
		for i := range target {
			if target[i] != r {
				t := slices.Clone(target)
				t[i] = r
				emit(distance.OpSubstitution, i, r, t)
			}
		}
		for i := 0; i <= len(target); i++ {
			emit(distance.OpAddition, i, r, slices.Insert(slices.Clone(target), i, r))
		}
	}
	return out
}

// isFatFingerEdit is Moore and Edelman's FF-1 relation stated on the
// edit: a deletion or transposition; a substitution by a key adjacent to
// the one replaced; an addition of a key that repeats or is adjacent to
// an intended key beside it.
func isFatFingerEdit(target []rune, e edit) bool {
	switch e.op {
	case distance.OpSubstitution:
		return distance.Adjacent(target[e.pos], e.r)
	case distance.OpAddition:
		near := func(k rune) bool { return k == e.r || distance.Adjacent(k, e.r) }
		return (e.pos > 0 && near(target[e.pos-1])) || (e.pos < len(target) && near(target[e.pos]))
	}
	return true
}

// TestEditFactsMatchesStringForm checks EditFacts against IsFatFinger1
// and VisualEditCost, and IsFatFinger1 against the edit-stated FF-1
// relation, for every DL-1 edit of the ecosystem's default targets and
// of edge-case targets.
func TestEditFactsMatchesStringForm(t *testing.T) {
	cfg := ecosys.DefaultConfig()
	domains := []string{
		"aabbcc.com", "bookkeeper.net", "a-b--c.org", "10minutemail.com",
		"GMail.com", "ümlaut.com", "x.com", "localhost",
	}
	for _, d := range alexa.NewUniverse(cfg.UniverseSize, cfg.Seed).Top(cfg.Targets) {
		domains = append(domains, d.Name)
	}
	for _, domain := range domains {
		sld := distance.SLD(domain)
		target := []rune(sld)
		for _, e := range dl1Edits(target) {
			ff, vis := distance.EditFacts(target, e.op, e.pos, e.r)
			wantFF := distance.IsFatFinger1(sld, e.typo)
			wantVis, ok := distance.VisualEditCost(sld, e.typo)
			if !ok || ff != wantFF || vis != wantVis {
				t.Fatalf("EditFacts(%q, %v@%d %q) = %v, %v; string form (%q) = %v, %v (ok=%v)",
					sld, e.op, e.pos, e.r, ff, vis, e.typo, wantFF, wantVis, ok)
			}
			if want := isFatFingerEdit(target, e); wantFF != want {
				t.Fatalf("IsFatFinger1(%q, %q) = %v, want %v for %v@%d %q",
					sld, e.typo, wantFF, want, e.op, e.pos, e.r)
			}
		}
	}
}

// TestFatFinger1ImpliesDL1 — Paper: "A fat-finger distance of one (FF-1)
// implies a DL-1 distance." Every FF-1 neighbor of a target is at DL
// distance one and recognized by IsFatFinger1.
func TestFatFinger1ImpliesDL1(t *testing.T) {
	for _, sld := range []string{"gmail", "outlook", "hotmail", "verizon", "comcast", "paypal"} {
		target := []rune(sld)
		for _, e := range dl1Edits(target) {
			if !isFatFingerEdit(target, e) {
				continue
			}
			if dl := distance.DamerauLevenshtein(sld, e.typo); dl != 1 {
				t.Fatalf("FF-1 string %q of %q has DL=%d", e.typo, sld, dl)
			}
			if !distance.IsFatFinger1(sld, e.typo) {
				t.Fatalf("FF-1 string %q of %q not recognized by IsFatFinger1", e.typo, sld)
			}
		}
	}
}
