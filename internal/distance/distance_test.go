package distance

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDamerauLevenshtein(t *testing.T) {
	tests := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"a", "", 1},
		{"", "abc", 3},
		{"gmail", "gmail", 0},
		{"gmail", "gmial", 1},  // transposition
		{"gmail", "gmaill", 1}, // addition
		{"gmail", "gmal", 1},   // deletion
		{"gmail", "gmaik", 1},  // substitution
		{"gmail", "gamil", 1},  // adjacent transposition of m,a
		{"abcd", "badc", 2},    // two transpositions
		{"ca", "abc", 3},
		{"kitten", "sitting", 3},
		{"outlook", "outlo0k", 1},
		{"hotmail", "ho6mail", 1},
		{"verizon", "verizo0n", 1},
	}
	for _, tc := range tests {
		if got := DamerauLevenshtein(tc.a, tc.b); got != tc.want {
			t.Errorf("DL(%q, %q) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
		if got := DamerauLevenshtein(tc.b, tc.a); got != tc.want {
			t.Errorf("DL(%q, %q) = %d, want %d (symmetry)", tc.b, tc.a, got, tc.want)
		}
	}
}

func TestClassifyEdit(t *testing.T) {
	tests := []struct {
		target, typo string
		want         EditOp
	}{
		{"gmail", "gmail", OpNone},
		{"gmail", "gmaiql", OpAddition},
		{"gmail", "gmal", OpDeletion},
		{"gmail", "gmael", OpSubstitution},
		{"gmail", "gmial", OpTransposition},
		{"gmail", "yahoo", OpOther},
		{"outlook", "outlo0k", OpSubstitution},
		{"outlook", "ohtlook", OpSubstitution}, // u->h, adjacent keys
		{"hotmail", "hotmial", OpTransposition},
		{"verizon", "verizonn", OpAddition},
		{"comcast", "comcat", OpDeletion},
		{"ab", "ba", OpTransposition},
		{"a", "", OpDeletion},
		{"", "a", OpAddition},
	}
	for _, tc := range tests {
		if got := ClassifyEdit(tc.target, tc.typo); got != tc.want {
			t.Errorf("ClassifyEdit(%q, %q) = %v, want %v", tc.target, tc.typo, got, tc.want)
		}
	}
}

func TestClassifyEditConsistentWithDL(t *testing.T) {
	// Any pair classified as a single op must have DL distance exactly 1.
	rng := rand.New(rand.NewSource(3))
	alphabet := []rune("abcdefgh")
	randStr := func(n int) string {
		rs := make([]rune, n)
		for i := range rs {
			rs[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(rs)
	}
	for trial := 0; trial < 2000; trial++ {
		a := randStr(1 + rng.Intn(8))
		b := randStr(1 + rng.Intn(8))
		op := ClassifyEdit(a, b)
		dl := DamerauLevenshtein(a, b)
		switch op {
		case OpNone:
			if dl != 0 {
				t.Fatalf("OpNone but DL=%d for %q,%q", dl, a, b)
			}
		case OpAddition, OpDeletion, OpSubstitution, OpTransposition:
			if dl != 1 {
				t.Fatalf("op=%v but DL=%d for %q,%q", op, dl, a, b)
			}
		case OpOther:
			if dl <= 1 {
				t.Fatalf("OpOther but DL=%d for %q,%q", dl, a, b)
			}
		}
	}
}

func TestEditPosition(t *testing.T) {
	tests := []struct {
		target, typo string
		pos          int
		ok           bool
	}{
		{"gmail", "gmaiql", 4, true},
		{"gmail", "gmailq", 5, true},
		{"gmail", "qgmail", 0, true},
		{"gmail", "mail", 0, true},
		{"gmail", "gmal", 3, true},
		{"gmail", "xmail", 0, true},
		{"gmail", "gmial", 2, true},
		{"gmail", "zzzzz", 0, false},
	}
	for _, tc := range tests {
		pos, ok := EditPosition(tc.target, tc.typo)
		if pos != tc.pos || ok != tc.ok {
			t.Errorf("EditPosition(%q, %q) = %d,%v want %d,%v", tc.target, tc.typo, pos, ok, tc.pos, tc.ok)
		}
	}
}

func TestAdjacency(t *testing.T) {
	adj := [][2]rune{{'g', 'h'}, {'g', 'f'}, {'g', 't'}, {'g', 'b'}, {'q', 'w'}, {'o', '0'}, {'o', 'p'}, {'m', 'n'}}
	for _, p := range adj {
		if !Adjacent(p[0], p[1]) {
			t.Errorf("Adjacent(%c, %c) = false, want true", p[0], p[1])
		}
		if !Adjacent(p[1], p[0]) {
			t.Errorf("Adjacent(%c, %c) = false, want true (symmetry)", p[1], p[0])
		}
	}
	notAdj := [][2]rune{{'q', 'p'}, {'a', 'l'}, {'g', 'g'}, {'z', '1'}, {'a', '.'}}
	for _, p := range notAdj {
		if Adjacent(p[0], p[1]) {
			t.Errorf("Adjacent(%c, %c) = true, want false", p[0], p[1])
		}
	}
}

func TestNeighbors(t *testing.T) {
	ns := Neighbors('g')
	set := map[rune]bool{}
	for _, n := range ns {
		set[n] = true
	}
	for _, want := range []rune{'f', 'h', 't', 'y', 'v', 'b'} {
		if !set[want] {
			t.Errorf("Neighbors('g') missing %c (got %q)", want, string(ns))
		}
	}
	if set['g'] {
		t.Error("key adjacent to itself")
	}
	if Neighbors('.') != nil {
		t.Error("Neighbors of unknown key should be nil")
	}
}

// TestKeyTableMatchesGeometry checks the key table behind Adjacent and
// Neighbors against their geometric definition — distinct keys less than
// 1.5 key widths apart by KeyboardDistance — for every rune pair below
// 256 and a few beyond.
func TestKeyTableMatchesGeometry(t *testing.T) {
	runes := []rune{-1, 0x100, 'ß', 'ü', 'İ', 0x212A, 0x10FFFF}
	for r := rune(0); r < 256; r++ {
		runes = append(runes, r)
	}
	geomAdjacent := func(a, b rune) bool {
		d, ok := KeyboardDistance(a, b)
		return lower(a) != lower(b) && ok && d < 1.5
	}
	for _, a := range runes {
		var want []rune
		if _, ok := keyPositions[lower(a)]; ok {
			want = []rune{}
			for _, row := range qwertyRows {
				for _, k := range row.keys {
					if geomAdjacent(a, k) {
						want = append(want, k)
					}
				}
			}
		}
		if got := Neighbors(a); (got == nil) != (want == nil) || string(got) != string(want) {
			t.Errorf("Neighbors(%q) = %q, want %q", a, string(got), string(want))
		}
		for _, b := range runes {
			if got, want := Adjacent(a, b), geomAdjacent(a, b); got != want {
				t.Errorf("Adjacent(%q, %q) = %v, want %v", a, b, got, want)
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() { Neighbors('g') }); n != 0 {
		t.Errorf("Neighbors allocates %v times per call", n)
	}
}

func TestKeyboardDistance(t *testing.T) {
	if d, ok := KeyboardDistance('a', 's'); !ok || d < 0.9 || d > 1.1 {
		t.Errorf("KeyboardDistance(a,s) = %v,%v want ~1", d, ok)
	}
	if d, ok := KeyboardDistance('q', 'p'); !ok || d < 8 {
		t.Errorf("KeyboardDistance(q,p) = %v,%v want >= 8", d, ok)
	}
	if _, ok := KeyboardDistance('a', '.'); ok {
		t.Error("KeyboardDistance with unknown key should report !ok")
	}
	if d, ok := KeyboardDistance('A', 'S'); !ok || d > 1.2 {
		t.Errorf("uppercase not folded: %v %v", d, ok)
	}
}

func TestIsFatFinger1(t *testing.T) {
	tests := []struct {
		target, typo string
		want         bool
	}{
		{"gmail", "gmial", true},     // transposition: always FF
		{"gmail", "gmal", true},      // deletion: always FF
		{"gmail", "gmaik", true},     // l->k adjacent
		{"gmail", "gmaiz", false},    // l->z not adjacent
		{"outlook", "outlo0k", true}, // o->0 adjacent on keyboard
		{"gmail", "gmaiql", false},   // q not adjacent to i or l
		{"gmail", "gmnail", true},    // n adjacent to m
		{"gmail", "gmail", false},    // identical
		{"gmail", "yahoo", false},
	}
	for _, tc := range tests {
		if got := IsFatFinger1(tc.target, tc.typo); got != tc.want {
			t.Errorf("IsFatFinger1(%q, %q) = %v, want %v", tc.target, tc.typo, got, tc.want)
		}
	}
}

func TestVisualEditCost(t *testing.T) {
	// o->0 must be far cheaper than o->k; doubled-letter tricks cheap.
	c00, ok := VisualEditCost("outlook", "outlo0k")
	if !ok {
		t.Fatal("outlo0k should be DL-1")
	}
	cok, ok := VisualEditCost("outlook", "outlokk")
	if !ok {
		t.Fatal("outlokk should be DL-1")
	}
	if c00 >= cok {
		t.Errorf("visual(o->0)=%v should be < visual(o->k)=%v", c00, cok)
	}
	cdd, ok := VisualEditCost("gmail", "gmmail") // doubled letter
	if !ok || cdd > 0.3 {
		t.Errorf("doubled-letter addition cost = %v, want small", cdd)
	}
	cq, ok := VisualEditCost("gmail", "gmaiql") // conspicuous insert
	if !ok || cq < cdd {
		t.Errorf("conspicuous addition %v should cost more than doubling %v", cq, cdd)
	}
	if c, ok := VisualEditCost("gmail", "gmail"); !ok || c != 0 {
		t.Errorf("identity visual cost = %v, %v", c, ok)
	}
	if _, ok := VisualEditCost("gmail", "yahoo"); ok {
		t.Error("DL>1 pair should report !ok")
	}
}

func TestVisualOrderingMatchesPaper(t *testing.T) {
	// The paper observes that visually-near typos of popular domains
	// (ohtlook, outlo0k, evrizon) receive the most mail. At minimum the
	// metric must rank outlo0k (lookalike digit) below outlopk
	// (visible letter change).
	vClose := Visual("outlook", "outlo0k")
	vFar := Visual("outlook", "outlopk")
	if vClose >= vFar {
		t.Errorf("Visual(outlo0k)=%v should be < Visual(outlopk)=%v", vClose, vFar)
	}
	// Transposition should be mid-range: harder to see than lookalike
	// digits, easier than a random letter swap.
	vTrans := Visual("outlook", "uotlook")
	if !(vClose < vTrans && vTrans < vFar) {
		t.Errorf("ordering violated: %v < %v < %v expected", vClose, vTrans, vFar)
	}
}

func TestVisualFallbackMonotone(t *testing.T) {
	// Multi-edit strings accumulate cost.
	v1 := Visual("gmail", "gmal")
	v2 := Visual("gmail", "gml") // two deletions
	if v2 <= v1 {
		t.Errorf("Visual two-deletions %v should exceed one %v", v2, v1)
	}
	if Visual("gmail", "gmail") != 0 {
		t.Error("Visual identity must be 0")
	}
}

func TestNormalizedVisual(t *testing.T) {
	nv := NormalizedVisual("gmail.com", "gmal.com")
	raw := Visual("gmail", "gmal")
	if want := raw / 5; !almostEq(nv, want) {
		t.Errorf("NormalizedVisual = %v, want %v", nv, want)
	}
	if NormalizedVisual("", "") != 0 {
		t.Error("NormalizedVisual of empty = 0")
	}
}

func almostEq(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}

func TestSLDAndTLD(t *testing.T) {
	tests := []struct {
		in, sld, tld string
	}{
		{"gmail.com", "gmail", "com"},
		{"gmail.com.", "gmail", "com"},
		{"mail.google.com", "google", "com"},
		{"localhost", "localhost", ""},
	}
	for _, tc := range tests {
		if got := SLD(tc.in); got != tc.sld {
			t.Errorf("SLD(%q) = %q, want %q", tc.in, got, tc.sld)
		}
		if got := TLD(tc.in); got != tc.tld {
			t.Errorf("TLD(%q) = %q, want %q", tc.in, got, tc.tld)
		}
	}
}

// Property: DL is a metric — symmetric, zero iff equal, triangle
// inequality (on the OSA variant the triangle inequality can be violated
// in pathological cases, so we check symmetry and identity plus an upper
// bound by length difference).
func TestDLProperties(t *testing.T) {
	f := func(a, b string) bool {
		if len(a) > 12 {
			a = a[:12]
		}
		if len(b) > 12 {
			b = b[:12]
		}
		d1, d2 := DamerauLevenshtein(a, b), DamerauLevenshtein(b, a)
		if d1 != d2 {
			return false
		}
		if (d1 == 0) != (a == b) {
			return false
		}
		la, lb := len([]rune(a)), len([]rune(b))
		diff := la - lb
		if diff < 0 {
			diff = -diff
		}
		maxLen := la
		if lb > maxLen {
			maxLen = lb
		}
		return d1 >= diff && d1 <= maxLen
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: every single-edit mutation is classified as that op and lands
// at DL-1.
func TestMutationClassificationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const alphabet = "abcdefghijklmnopqrstuvwxyz"
	randStr := func(n int) []rune {
		rs := make([]rune, n)
		for i := range rs {
			rs[i] = rune(alphabet[rng.Intn(len(alphabet))])
		}
		return rs
	}
	for trial := 0; trial < 1000; trial++ {
		base := randStr(4 + rng.Intn(8))
		switch rng.Intn(4) {
		case 0: // addition
			pos := rng.Intn(len(base) + 1)
			ins := rune(alphabet[rng.Intn(26)])
			typo := string(base[:pos]) + string(ins) + string(base[pos:])
			if typo == string(base) {
				continue
			}
			if op := ClassifyEdit(string(base), typo); op != OpAddition {
				t.Fatalf("addition %q->%q classified %v", string(base), typo, op)
			}
		case 1: // deletion
			pos := rng.Intn(len(base))
			typo := string(base[:pos]) + string(base[pos+1:])
			if typo == string(base) {
				continue
			}
			if op := ClassifyEdit(string(base), typo); op != OpDeletion {
				t.Fatalf("deletion %q->%q classified %v", string(base), typo, op)
			}
		case 2: // substitution
			pos := rng.Intn(len(base))
			sub := rune(alphabet[rng.Intn(26)])
			if sub == base[pos] {
				continue
			}
			typo := append([]rune(nil), base...)
			typo[pos] = sub
			if op := ClassifyEdit(string(base), string(typo)); op != OpSubstitution {
				t.Fatalf("substitution %q->%q classified %v", string(base), string(typo), op)
			}
		case 3: // transposition
			if len(base) < 2 {
				continue
			}
			pos := rng.Intn(len(base) - 1)
			if base[pos] == base[pos+1] {
				continue
			}
			typo := append([]rune(nil), base...)
			typo[pos], typo[pos+1] = typo[pos+1], typo[pos]
			if op := ClassifyEdit(string(base), string(typo)); op != OpTransposition {
				t.Fatalf("transposition %q->%q classified %v", string(base), string(typo), op)
			}
		}
	}
}

func TestEditOpString(t *testing.T) {
	ops := map[EditOp]string{
		OpNone: "none", OpAddition: "addition", OpDeletion: "deletion",
		OpSubstitution: "substitution", OpTransposition: "transposition", OpOther: "other",
	}
	for op, want := range ops {
		if got := op.String(); got != want {
			t.Errorf("EditOp(%d).String() = %q, want %q", op, got, want)
		}
	}
}
