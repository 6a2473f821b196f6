package match

import (
	"regexp/syntax"
	"unicode"
)

// Pattern scan modes. modeFactors patterns are driven by Aho–Corasick
// literal hits; modeFirstByte patterns (dense classes like credit-card
// digit runs, where no useful literal exists) are driven by a lazy
// first-byte scan; modeBOT patterns are anchored at the beginning of
// text and have exactly one candidate; modeFallback patterns run the
// plain stdlib regexp directly — always correct, never fast.
const (
	modeFactors = iota
	modeFirstByte
	modeBOT
	modeFallback
)

const inf = 1 << 30

// litFactor is one required literal of a pattern: every match of the
// pattern contains lit (case-folded) starting between minPre and
// maxPre bytes after the match start. back != nil marks a backwalk
// factor instead: the match start is found by walking left from the
// literal over bytes in back (the class of the unbounded prefix run).
type litFactor struct {
	lit            string
	minPre, maxPre int
	back           *[256]bool
	needNW         bool // match start requires a non-word byte before it (\b + word first char)
}

// analysis is everything Compile derives from one pattern's syntax
// tree.
type analysis struct {
	mode    int
	factors []litFactor
	first   *[256]bool // modeFirstByte: set of possible first bytes
	needNW  bool       // modeFirstByte: \b precheck applies at candidates
	minLen  int
	// firstSet, when non-nil, is the exact set of bytes a match can
	// start with — a cheap necessary-condition check applied to every
	// factor-derived candidate before it is recorded. (Non-ASCII first
	// runes make firstBytes fail, leaving firstSet nil and the check
	// off.)
	firstSet *[256]bool
}

// analyze classifies a parsed pattern. The caller falls back to the
// plain stdlib regexp whenever mode is modeFallback; everything else is a
// necessary-condition prefilter, proven a superset of true match
// starts by the differential suite.
func analyze(re *syntax.Regexp) analysis {
	mn, _ := byteLen(re)
	a := analysis{minLen: mn}
	if mn == 0 {
		// An empty match defeats both the prefilter (no required
		// bytes) and FindAll resume arithmetic; the stdlib handles it.
		a.mode = modeFallback
		return a
	}
	if hasOp(re, syntax.OpBeginLine) || hasOp(re, syntax.OpEndLine) {
		a.mode = modeFallback
		return a
	}
	if startsWith(re, syntax.OpBeginText) {
		a.mode = modeBOT
		return a
	}
	if hasOp(re, syntax.OpBeginText) {
		// \A somewhere other than the head (e.g. inside one branch)
		// breaks the "probe window ≡ whole-text match" argument.
		a.mode = modeFallback
		return a
	}
	if fs, ok := factorsOf(re); ok && len(fs) > 0 {
		if nw, only := boundaryHead(re); only {
			for i := range fs {
				if fs[i].back == nil {
					fs[i].needNW = nw
				}
			}
		}
		a.mode = modeFactors
		a.factors = fs
		if set, _, ok := firstBytes(re); ok {
			a.firstSet = set
		}
		return a
	}
	if first, nw, ok := firstBytes(re); ok {
		a.mode = modeFirstByte
		a.first = first
		a.needNW = nw
		return a
	}
	a.mode = modeFallback
	return a
}

// byteLen bounds the UTF-8 byte length of any match of re. Folded
// literals use fold-orbit widths ('s' can match 2-byte U+017F, 'k' the
// 3-byte U+212A), so the bounds stay sound on fold-trap inputs.
func byteLen(re *syntax.Regexp) (min, max int) {
	switch re.Op {
	case syntax.OpLiteral:
		for _, r := range re.Rune {
			lo, hi := runeWidth(r, re.Flags&syntax.FoldCase != 0)
			min += lo
			max = addCap(max, hi)
		}
	case syntax.OpCharClass:
		if len(re.Rune) == 0 {
			return inf, 0 // matches nothing
		}
		min, max = 4, 1
		for i := 0; i < len(re.Rune); i += 2 {
			lo, _ := runeWidth(re.Rune[i], false)
			_, hi := runeWidth(re.Rune[i+1], false)
			if lo < min {
				min = lo
			}
			if hi > max {
				max = hi
			}
		}
	case syntax.OpAnyChar, syntax.OpAnyCharNotNL:
		return 1, 4
	case syntax.OpCapture:
		return byteLen(re.Sub[0])
	case syntax.OpConcat:
		for _, s := range re.Sub {
			lo, hi := byteLen(s)
			min += lo
			max = addCap(max, hi)
		}
	case syntax.OpAlternate:
		min, max = inf, 0
		for _, s := range re.Sub {
			lo, hi := byteLen(s)
			if lo < min {
				min = lo
			}
			if hi > max {
				max = hi
			}
		}
	case syntax.OpQuest:
		_, hi := byteLen(re.Sub[0])
		return 0, hi
	case syntax.OpStar:
		return 0, inf
	case syntax.OpPlus:
		lo, _ := byteLen(re.Sub[0])
		return lo, inf
	case syntax.OpRepeat:
		lo, hi := byteLen(re.Sub[0])
		min = lo * re.Min
		if re.Max < 0 {
			max = inf
		} else {
			max = mulCap(hi, re.Max)
		}
	default: // empty-width ops: boundaries, anchors, OpEmptyMatch
		return 0, 0
	}
	if min > inf {
		min = inf
	}
	return min, max
}

func runeWidth(r rune, folded bool) (min, max int) {
	w := utf8Len(r)
	min, max = w, w
	if folded {
		for f := unicode.SimpleFold(r); f != r; f = unicode.SimpleFold(f) {
			fw := utf8Len(f)
			if fw < min {
				min = fw
			}
			if fw > max {
				max = fw
			}
		}
	}
	return min, max
}

func utf8Len(r rune) int {
	switch {
	case r < 0x80:
		return 1
	case r < 0x800:
		return 2
	case r < 0x10000:
		return 3
	}
	return 4
}

func addCap(a, b int) int {
	if a >= inf || b >= inf {
		return inf
	}
	return a + b
}

func mulCap(a, b int) int {
	if a >= inf || (b > 0 && a > inf/b) {
		return inf
	}
	return a * b
}

const (
	maxFactors   = 64 // alternation fan-out cap
	maxPreSpread = 8  // widest tolerated [minPre,maxPre] offset window
	maxClassLits = 4  // char class treated as per-rune literals up to this size
)

// factorsOf extracts required literal factors with their offset (or
// backwalk) information. ok is false when no sound factor set exists.
func factorsOf(re *syntax.Regexp) ([]litFactor, bool) {
	switch re.Op {
	case syntax.OpLiteral:
		lit, ok := foldLiteral(re)
		if !ok {
			return nil, false
		}
		return []litFactor{{lit: lit}}, true
	case syntax.OpCharClass:
		return classFactors(re)
	case syntax.OpCapture:
		return factorsOf(re.Sub[0])
	case syntax.OpPlus:
		return factorsOf(re.Sub[0])
	case syntax.OpRepeat:
		if re.Min >= 1 {
			return factorsOf(re.Sub[0])
		}
		return nil, false
	case syntax.OpAlternate:
		all := make([]litFactor, 0, maxFactors)
		for _, s := range re.Sub {
			fs, ok := factorsOf(s)
			if !ok || len(all)+len(fs) > maxFactors {
				return nil, false
			}
			all = append(all, fs...)
		}
		return all, true
	case syntax.OpConcat:
		return concatFactors(re.Sub)
	}
	return nil, false
}

// concatFactors picks the best factored child of a concatenation: the
// one with the longest minimum literal (ties to the earliest) whose
// prefix is either byte-bounded within maxPreSpread (offsets shift) or
// a single star/plus of an ASCII single-byte class (backwalk). Every
// concat child is required, so any such child yields a sound factor
// set.
func concatFactors(subs []*syntax.Regexp) ([]litFactor, bool) {
	var best []litFactor
	bestLen := -1
	for i, s := range subs {
		fs, ok := factorsOf(s)
		if !ok {
			continue
		}
		preMin, preMax := 0, 0
		for _, p := range subs[:i] {
			lo, hi := byteLen(p)
			preMin += lo
			preMax = addCap(preMax, hi)
		}
		if preMax-preMin > maxPreSpread || preMax >= inf {
			// Unbounded prefix: try backwalk — exactly one star/plus
			// of an ASCII single-byte class before the factor (plus
			// any zero-width children), and the class must exclude
			// each factor's first byte so the walk is linear and
			// stops at the previous occurrence.
			cls := backwalkClass(subs[:i])
			if cls == nil {
				continue
			}
			ok := true
			for _, f := range fs {
				if f.minPre != 0 || f.maxPre != 0 || f.back != nil || cls[f.lit[0]] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			bw := make([]litFactor, len(fs))
			for j, f := range fs {
				bw[j] = litFactor{lit: f.lit, back: cls}
			}
			fs = bw
		} else {
			for j := range fs {
				if fs[j].back != nil {
					ok = false
					break
				}
				fs[j].minPre += preMin
				fs[j].maxPre += preMax
				if fs[j].maxPre-fs[j].minPre > maxPreSpread {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
		}
		ml := minLitLen(fs)
		if ml > bestLen {
			best, bestLen = fs, ml
		}
	}
	return best, best != nil
}

func minLitLen(fs []litFactor) int {
	ml := inf
	for _, f := range fs {
		if len(f.lit) < ml {
			ml = len(f.lit)
		}
	}
	return ml
}

// backwalkClass accepts a prefix consisting of zero-width children and
// exactly one star/plus (or repeat) over an ASCII single-byte class,
// returning that class as a byte set.
func backwalkClass(prefix []*syntax.Regexp) *[256]bool {
	var cls *[256]bool
	for _, p := range prefix {
		if lo, hi := byteLen(p); lo == 0 && hi == 0 {
			continue
		}
		if cls != nil {
			return nil // more than one run
		}
		var inner *syntax.Regexp
		switch p.Op {
		case syntax.OpStar, syntax.OpPlus:
			inner = p.Sub[0]
		case syntax.OpRepeat:
			if p.Max >= 0 {
				return nil // bounded repeats are handled by offsets
			}
			inner = p.Sub[0]
		default:
			return nil
		}
		cls = asciiByteSet(inner)
		if cls == nil {
			return nil
		}
	}
	return cls
}

// asciiByteSet returns the byte set of a pure-ASCII single-rune class
// or literal, or nil.
func asciiByteSet(re *syntax.Regexp) *[256]bool {
	var set [256]bool
	switch re.Op {
	case syntax.OpCharClass:
		for i := 0; i < len(re.Rune); i += 2 {
			lo, hi := re.Rune[i], re.Rune[i+1]
			if hi >= 0x80 {
				return nil
			}
			for r := lo; r <= hi; r++ {
				set[byte(r)] = true
			}
		}
	case syntax.OpLiteral:
		if len(re.Rune) != 1 || re.Rune[0] >= 0x80 || re.Flags&syntax.FoldCase != 0 {
			return nil
		}
		set[byte(re.Rune[0])] = true
	default:
		return nil
	}
	return &set
}

// foldLiteral lowers an ASCII literal to its folded form for the AC
// trie. Case-sensitive literals are folded too: folding the haystack
// can only add occurrences, so the candidate set stays a superset.
func foldLiteral(re *syntax.Regexp) (string, bool) {
	b := make([]byte, 0, len(re.Rune))
	for _, r := range re.Rune {
		if r >= 0x80 {
			return "", false
		}
		b = append(b, foldTable[byte(r)])
	}
	return string(b), len(b) > 0
}

// classFactors turns a small ASCII class into one single-byte literal
// per distinct folded byte.
func classFactors(re *syntax.Regexp) ([]litFactor, bool) {
	n := 0
	var seen [256]bool
	fs := make([]litFactor, 0, maxClassLits)
	for i := 0; i < len(re.Rune); i += 2 {
		lo, hi := re.Rune[i], re.Rune[i+1]
		if hi >= 0x80 {
			return nil, false
		}
		for r := lo; r <= hi; r++ {
			n++
			if n > maxClassLits {
				return nil, false
			}
			b := foldTable[byte(r)]
			if !seen[b] {
				seen[b] = true
				fs = append(fs, litFactor{lit: string([]byte{b})})
			}
		}
	}
	return fs, len(fs) > 0
}

// boundaryHead reports whether the pattern is a concatenation headed
// only by zero-width ops including a \b, with every first rune a word
// rune — in which case a candidate match start must be preceded by a
// non-word byte (or text start), a one-byte precheck applied at emit
// time. only is false when the head shape is anything else.
func boundaryHead(re *syntax.Regexp) (needNW, only bool) {
	for re.Op == syntax.OpCapture {
		re = re.Sub[0]
	}
	if re.Op != syntax.OpConcat || len(re.Sub) == 0 {
		return false, true
	}
	head := re.Sub[0]
	for head.Op == syntax.OpCapture {
		head = head.Sub[0]
	}
	if head.Op != syntax.OpWordBoundary {
		return false, true
	}
	first, _, ok := firstBytes(re)
	if !ok {
		return false, true
	}
	for b := 0; b < 256; b++ {
		if first[b] && !isWordByte(byte(b)) {
			return false, true
		}
	}
	return true, true
}

// firstBytes computes the set of bytes a match can start with, and
// whether every path to the first rune crosses a \b with a word first
// rune (enabling the non-word-before precheck). ok is false when a
// first rune can be non-ASCII or the shape is unsupported.
func firstBytes(re *syntax.Regexp) (*[256]bool, bool, bool) {
	var set [256]bool
	nw := true
	sawBoundary := true
	var walk func(re *syntax.Regexp, afterB bool) (nullable bool, ok bool)
	walk = func(re *syntax.Regexp, afterB bool) (bool, bool) {
		switch re.Op {
		case syntax.OpLiteral:
			if len(re.Rune) == 0 {
				return true, true
			}
			return false, addFirstRune(&set, re.Rune[0], re.Flags&syntax.FoldCase != 0, afterB, &nw, &sawBoundary)
		case syntax.OpCharClass:
			for i := 0; i < len(re.Rune); i += 2 {
				for r := re.Rune[i]; r <= re.Rune[i+1]; r++ {
					if r >= 0x80 {
						return false, false
					}
					if !addFirstRune(&set, r, false, afterB, &nw, &sawBoundary) {
						return false, false
					}
				}
			}
			return false, true
		case syntax.OpAnyChar, syntax.OpAnyCharNotNL:
			return false, false
		case syntax.OpCapture:
			return walk(re.Sub[0], afterB)
		case syntax.OpConcat:
			for _, s := range re.Sub {
				nullable, ok := walk(s, afterB)
				if !ok {
					return false, false
				}
				if !nullable {
					return false, true
				}
				if s.Op == syntax.OpWordBoundary {
					afterB = true
				}
			}
			return true, true
		case syntax.OpAlternate:
			nullable := false
			for _, s := range re.Sub {
				n, ok := walk(s, afterB)
				if !ok {
					return false, false
				}
				nullable = nullable || n
			}
			return nullable, true
		case syntax.OpQuest, syntax.OpStar:
			_, ok := walk(re.Sub[0], afterB)
			return true, ok
		case syntax.OpPlus:
			return walk(re.Sub[0], afterB)
		case syntax.OpRepeat:
			nullable, ok := walk(re.Sub[0], afterB)
			return nullable || re.Min == 0, ok
		case syntax.OpWordBoundary:
			return true, true
		case syntax.OpEmptyMatch, syntax.OpNoWordBoundary,
			syntax.OpBeginText, syntax.OpEndText:
			return true, true
		}
		return false, false
	}
	if _, ok := walk(re, false); !ok {
		return nil, false, false
	}
	return &set, nw && sawBoundary, true
}

// addFirstRune records r (and its folds) as a possible first byte.
// Returns false when a fold lands outside ASCII, which would make the
// byte scan miss match starts.
func addFirstRune(set *[256]bool, r rune, folded, afterB bool, nw, sawBoundary *bool) bool {
	add := func(r rune) bool {
		if r >= 0x80 {
			return false
		}
		set[byte(r)] = true
		if !afterB || !isWordByte(byte(r)) {
			// This start neither sits after a \b nor is a word rune,
			// so the non-word-before precheck would be unsound.
			*nw = false
		}
		if !afterB {
			*sawBoundary = false
		}
		return true
	}
	if !add(r) {
		return false
	}
	if folded {
		for f := unicode.SimpleFold(r); f != r; f = unicode.SimpleFold(f) {
			if !add(f) {
				return false
			}
		}
	}
	return true
}

func hasOp(re *syntax.Regexp, op syntax.Op) bool {
	if re.Op == op {
		return true
	}
	for _, s := range re.Sub {
		if hasOp(s, op) {
			return true
		}
	}
	return false
}

// startsWith reports whether every match necessarily begins with op at
// the head of the pattern (through captures/concats, and through
// alternations when every branch does).
func startsWith(re *syntax.Regexp, op syntax.Op) bool {
	switch re.Op {
	case op:
		return true
	case syntax.OpCapture:
		return startsWith(re.Sub[0], op)
	case syntax.OpConcat:
		return len(re.Sub) > 0 && startsWith(re.Sub[0], op)
	case syntax.OpAlternate:
		for _, s := range re.Sub {
			if !startsWith(s, op) {
				return false
			}
		}
		return len(re.Sub) > 0
	}
	return false
}
