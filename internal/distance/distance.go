package distance

// DamerauLevenshtein returns the minimum number of insertions, deletions,
// substitutions and transpositions of adjacent characters needed to turn a
// into b (the restricted-edit / optimal-string-alignment variant commonly
// used in the typosquatting literature, where each substring may be edited
// at most once).
func DamerauLevenshtein(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	la, lb := len(ra), len(rb)
	if la == 0 {
		return lb
	}
	if lb == 0 {
		return la
	}
	// Three rolling rows: i-2, i-1, i.
	prev2 := make([]int, lb+1)
	prev := make([]int, lb+1)
	cur := make([]int, lb+1)
	for j := 0; j <= lb; j++ {
		prev[j] = j
	}
	for i := 1; i <= la; i++ {
		cur[0] = i
		for j := 1; j <= lb; j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			d := min3(
				prev[j]+1,      // deletion
				cur[j-1]+1,     // insertion
				prev[j-1]+cost, // substitution / match
			)
			if i > 1 && j > 1 && ra[i-1] == rb[j-2] && ra[i-2] == rb[j-1] {
				if t := prev2[j-2] + 1; t < d {
					d = t // transposition
				}
			}
			cur[j] = d
		}
		prev2, prev, cur = prev, cur, prev2
	}
	return prev[lb]
}

// EditOp labels the kind of single edit separating two strings at DL
// distance one. The paper's Figure 9 compares typo-domain popularity
// across exactly these four classes.
type EditOp int

const (
	OpNone EditOp = iota // strings identical
	OpAddition
	OpDeletion
	OpSubstitution
	OpTransposition
	OpOther // DL distance > 1
)

func (op EditOp) String() string {
	switch op {
	case OpNone:
		return "none"
	case OpAddition:
		return "addition"
	case OpDeletion:
		return "deletion"
	case OpSubstitution:
		return "substitution"
	case OpTransposition:
		return "transposition"
	default:
		return "other"
	}
}

// ClassifyEdit determines which single-edit operation turns target into
// typo, from the typo-maker's perspective: OpAddition means the typist
// added a character. Returns OpOther when the DL distance exceeds one.
func ClassifyEdit(target, typo string) EditOp {
	if target == typo {
		return OpNone
	}
	rt, ry := []rune(target), []rune(typo)
	switch {
	case len(ry) == len(rt)+1:
		if isInsertionOf(rt, ry) {
			return OpAddition
		}
	case len(ry) == len(rt)-1:
		if isInsertionOf(ry, rt) {
			return OpDeletion
		}
	case len(ry) == len(rt):
		if i, j := firstLastDiff(rt, ry); i == j {
			return OpSubstitution
		} else if j == i+1 && rt[i] == ry[j] && rt[j] == ry[i] {
			return OpTransposition
		}
	}
	return OpOther
}

// EditPosition returns the index in the target where the single edit
// occurred and true, or 0,false when the strings are not at DL-1.
// Position matters to the correction model: mistakes at the start of a
// name are more salient and more likely to be caught.
func EditPosition(target, typo string) (int, bool) {
	op := ClassifyEdit(target, typo)
	rt, ry := []rune(target), []rune(typo)
	switch op {
	case OpAddition:
		for i := 0; i < len(rt); i++ {
			if rt[i] != ry[i] {
				return i, true
			}
		}
		return len(rt), true
	case OpDeletion, OpSubstitution, OpTransposition:
		for i := 0; i < len(rt) && i < len(ry); i++ {
			if rt[i] != ry[i] {
				return i, true
			}
		}
		return len(ry), true
	default:
		return 0, false
	}
}

// isInsertionOf reports whether long is short with exactly one extra rune.
func isInsertionOf(short, long []rune) bool {
	i, j, used := 0, 0, false
	for i < len(short) && j < len(long) {
		if short[i] == long[j] {
			i++
			j++
			continue
		}
		if used {
			return false
		}
		used = true
		j++
	}
	return true // any trailing extra rune in long is the insertion
}

// firstLastDiff returns the first and last indices at which two
// equal-length rune slices differ.
func firstLastDiff(a, b []rune) (int, int) {
	first, last := -1, -1
	for i := range a {
		if a[i] != b[i] {
			if first < 0 {
				first = i
			}
			last = i
		}
	}
	return first, last
}

// IsFatFinger1 reports whether typo is exactly one fat-finger edit away
// from target: a substitution by an adjacent key, an insertion of a key
// adjacent to one of its new neighbors, a deletion, or a transposition of
// two neighboring characters. Deletions and transpositions involve no
// "wrong key" press and are always fat-finger per Moore and Edelman's
// definition.
func IsFatFinger1(target, typo string) bool {
	op := ClassifyEdit(target, typo)
	rt, ry := []rune(target), []rune(typo)
	switch op {
	case OpDeletion, OpTransposition:
		return true
	case OpSubstitution:
		i, _ := firstLastDiff(rt, ry)
		return Adjacent(rt[i], ry[i])
	case OpAddition:
		// Insertions of repeated characters are positionally ambiguous
		// ("outlookk" can be an insert at index 6 or 7), so consider every
		// index whose removal recovers the target. The inserted key is a
		// fat-finger if it duplicates a neighboring intended key (double
		// press) or is QWERTY-adjacent to one (finger slip en route).
		for idx := 0; idx < len(ry); idx++ {
			if string(ry[:idx])+string(ry[idx+1:]) != target {
				continue
			}
			ins := ry[idx]
			if idx > 0 && (rt[idx-1] == ins || Adjacent(rt[idx-1], ins)) {
				return true
			}
			if idx < len(rt) && (rt[idx] == ins || Adjacent(rt[idx], ins)) {
				return true
			}
		}
		return false
	default:
		return false
	}
}

// EditFacts returns what IsFatFinger1(target, typo) and
// VisualEditCost(target, typo) return for the typo that one DL-1 edit
// makes of target, working them out from the edit instead of
// re-deriving it from the two strings: op at index pos of target, with
// r the rune a substitution puts at pos or an addition inserts before
// target[pos] (pos == len(target) appends). r is ignored for deletions
// and transpositions. The edit must change target: a substitution's r
// differs from target[pos], a transposition swaps two different runes.
//
// Any edit yielding the same typo yields the same facts: a deletion or
// addition inside a run of equal runes is the same string wherever in
// the run it lands, and the checks below read only whether the run has
// more than one rune, which every position in it sees.
func EditFacts(target []rune, op EditOp, pos int, r rune) (fatFinger bool, visual float64) {
	switch op {
	case OpDeletion:
		del := target[pos]
		if (pos > 0 && target[pos-1] == del) || (pos+1 < len(target) && target[pos+1] == del) {
			return true, visDeletionRepeat
		}
		return true, visDeletionOther
	case OpTransposition:
		return true, visTransposition
	case OpSubstitution:
		return Adjacent(target[pos], r), charConfusion(target[pos], r)
	case OpAddition:
		// The inserted key is a fat-finger if it repeats or is
		// QWERTY-adjacent to an intended key next to it.
		before := pos > 0 && target[pos-1] == r
		after := pos < len(target) && target[pos] == r
		fatFinger = before || after ||
			(pos > 0 && Adjacent(target[pos-1], r)) ||
			(pos < len(target) && Adjacent(target[pos], r))
		switch {
		case r == '-':
			return fatFinger, visAdditionHyphen
		case before || after:
			return fatFinger, visAdditionRepeat
		}
		return fatFinger, visAdditionOther
	}
	return false, 0
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}
