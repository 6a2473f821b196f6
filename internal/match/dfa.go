package match

import (
	"encoding/binary"
	"regexp/syntax"
	"sort"
	"sync"
	"sync/atomic"
	"unicode"
	"unicode/utf8"
)

// dfa is a lazy byte-class DFA over a compiled regexp program,
// answering one question per candidate: does an anchored match exist
// starting here? It never yields a span — spans and submatches always
// come from the anchored stdlib probe. Its "reject" is always exact.
// Its "accept" is exact too, unless it comes from a nil DFA or from a
// DFA that disabled itself (the state budget ran out and it now
// accepts everything); accepts reports which case it was.
//
// States are RE2-style delayed-closure sets: the raw (un-closed)
// instruction set plus a prev-rune-is-word bit and a begin-of-text
// bit. Empty-width conditions (\b, \B, \A, \z) need the *next* rune,
// so closure happens at the start of each step, when the next rune's
// class is known.
type dfa struct {
	prog *syntax.Prog

	ascii      [128]uint16
	repr       []rune // representative rune per class
	numClasses int    // including high/longS/kelvin, excluding EOT
	clsHigh    uint16
	clsLongS   uint16
	clsKelvin  uint16
	clsEOT     uint16

	mu       sync.Mutex
	states   map[string]*dState
	nStates  int
	disabled atomic.Bool
	starts   [4]*dState // [bot<<1 | prevWord]
}

type dState struct {
	raw      []uint32
	prevWord bool
	bot      bool
	next     []atomic.Pointer[dState]
}

// Sentinel outcomes. They are never stepped, only compared.
var (
	dfaAccept = &dState{}
	dfaDead   = &dState{}
)

const maxDFAStates = 1 << 12

// compileDFA builds the DFA for a parsed pattern, or returns nil when
// the program uses a shape the DFA does not model (multiline anchors,
// non-ASCII case folding, partially-covered high-rune ranges). A nil
// DFA accepts everything, handing the decision to the probe.
func compileDFA(parsed *syntax.Regexp) *dfa {
	prog, err := syntax.Compile(parsed)
	if err != nil {
		return nil
	}
	d := &dfa{prog: prog, states: make(map[string]*dState)}

	// Byte-class alphabet: cuts at every ASCII range edge (and fold
	// orbit member) of every rune instruction, at the ASCII word-class
	// edges (so prevWord is uniform per class), and at '\n' (for
	// AnyCharNotNL). High runes collapse to one class — valid only if
	// every range covers all of [0x80, MaxRune] or none of it — with
	// the two fold traps U+017F and U+212A carved out as their own
	// classes since they also behave like 's'/'k' under folding.
	var cut [129]bool
	cut[0] = true
	cut[128] = true
	mark := func(lo, hi rune) { // rune range [lo,hi], ASCII part
		if lo < 128 {
			cut[lo] = true
		}
		if hi < 128 {
			cut[hi+1] = true
		}
	}
	for _, edge := range []rune{'0', '9' + 1, 'A', 'Z' + 1, '_', '_' + 1, 'a', 'z' + 1, '\n', '\n' + 1} {
		cut[edge] = true
	}
	for i := range prog.Inst {
		inst := &prog.Inst[i]
		switch inst.Op {
		case syntax.InstEmptyWidth:
			op := syntax.EmptyOp(inst.Arg)
			if op&^(syntax.EmptyWordBoundary|syntax.EmptyNoWordBoundary|syntax.EmptyBeginText|syntax.EmptyEndText) != 0 {
				return nil // (?m) anchors: unmodelled
			}
		case syntax.InstRune:
			if len(inst.Rune) == 1 {
				r := inst.Rune[0]
				if r >= 0x80 {
					return nil
				}
				mark(r, r)
				if syntax.Flags(inst.Arg)&syntax.FoldCase != 0 {
					for _, f := range asciiFolds(r) {
						mark(f, f)
					}
				}
				continue
			}
			for j := 0; j < len(inst.Rune); j += 2 {
				lo, hi := inst.Rune[j], inst.Rune[j+1]
				if hi >= 0x80 && !(lo <= 0x80 && hi >= utf8.MaxRune) {
					return nil // partial high coverage: class not uniform
				}
				mark(lo, hi)
			}
		case syntax.InstRune1:
			r := inst.Rune[0]
			if r >= 0x80 {
				return nil
			}
			mark(r, r)
			if syntax.Flags(inst.Arg)&syntax.FoldCase != 0 {
				for _, f := range asciiFolds(r) {
					mark(f, f)
				}
			}
		}
	}
	cls := uint16(0)
	for b := 0; b < 128; b++ {
		if cut[b] && b > 0 {
			cls++
		}
		d.ascii[b] = cls
	}
	// Representatives: first byte of each ASCII class.
	d.repr = make([]rune, cls+1)
	for b := 127; b >= 0; b-- {
		d.repr[d.ascii[b]] = rune(b)
	}
	n := int(cls) + 1
	d.clsHigh = uint16(n)
	d.clsLongS = uint16(n + 1)
	d.clsKelvin = uint16(n + 2)
	d.clsEOT = uint16(n + 3)
	d.repr = append(d.repr, 0x80, 0x017F, 0x212A)
	d.numClasses = n + 3

	for i := 0; i < 4; i++ {
		d.starts[i] = d.intern([]uint32{uint32(prog.Start)}, i&1 != 0, i&2 != 0)
	}
	return d
}

// asciiFolds returns the ASCII members of r's simple-fold orbit other
// than r itself. Orbit members outside ASCII (ſ, K) have dedicated
// classes and need no cuts.
func asciiFolds(r rune) []rune {
	fs := make([]rune, 0, 2)
	for f := unicode.SimpleFold(r); f != r; f = unicode.SimpleFold(f) {
		if f < 0x80 {
			fs = append(fs, f)
		}
	}
	return fs
}

// accepts reports whether an anchored match of the pattern exists
// starting at text[c:], and whether that answer is exact. The byte
// before c supplies the \b context — a continuation byte is a non-word
// byte exactly as its rune is a non-word rune, so the byte-level check
// agrees with the oracle. A reject is always exact. An accept is exact
// only if the DFA was still enabled after reaching it: on state-budget
// exhaustion intern disables the DFA before it hands out (and caches)
// the fake dfaAccept, so a fake accept is always seen with disabled set.
func (d *dfa) accepts(text string, c int) (ok, exact bool) {
	if d == nil || d.disabled.Load() {
		return true, false
	}
	idx := 0
	if c > 0 && isWordByte(text[c-1]) {
		idx = 1
	}
	if c == 0 {
		idx |= 2
	}
	s := d.starts[idx]
	for i := c; ; {
		var cls uint16
		sz := 0
		if i < len(text) {
			cls, sz = d.classOf(text, i)
		} else {
			cls = d.clsEOT
		}
		ns := s.next[cls].Load()
		if ns == nil {
			ns = d.step(s, cls)
			s.next[cls].Store(ns)
		}
		switch ns {
		case dfaAccept:
			return true, !d.disabled.Load()
		case dfaDead:
			return false, true
		}
		if i >= len(text) {
			return false, true
		}
		if d.disabled.Load() {
			return true, false
		}
		s, i = ns, i+sz
	}
}

func (d *dfa) classOf(text string, i int) (uint16, int) {
	b := text[i]
	if b < 0x80 {
		return d.ascii[b], 1
	}
	r, sz := utf8.DecodeRuneInString(text[i:])
	switch r {
	case 0x017F:
		return d.clsLongS, sz
	case 0x212A:
		return d.clsKelvin, sz
	}
	// Invalid UTF-8 decodes to U+FFFD size 1 — the same rune the
	// oracle sees, and U+FFFD is covered by the uniform high class.
	return d.clsHigh, sz
}

// step computes the successor of s on input class cls: close s.raw
// under the empty-width flags the (prev, next) pair implies, accept if
// a match instruction is reached, otherwise advance every surviving
// rune instruction over the class representative.
func (d *dfa) step(s *dState, cls uint16) *dState {
	eot := cls == d.clsEOT
	var r rune = -1
	nextWord := false
	if !eot {
		r = d.repr[cls]
		nextWord = syntax.IsWordChar(r)
	}
	var flags syntax.EmptyOp
	if s.prevWord != nextWord {
		flags |= syntax.EmptyWordBoundary
	} else {
		flags |= syntax.EmptyNoWordBoundary
	}
	if s.bot {
		flags |= syntax.EmptyBeginText
	}
	if eot {
		flags |= syntax.EmptyEndText
	}

	stack := make([]uint32, 0, len(s.raw)*2)
	consuming := make([]uint32, 0, len(s.raw)*2)
	seen := make(map[uint32]bool, len(s.raw)*2)
	stack = append(stack, s.raw...)
	for len(stack) > 0 {
		pc := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[pc] {
			continue
		}
		seen[pc] = true
		inst := &d.prog.Inst[pc]
		switch inst.Op {
		case syntax.InstAlt, syntax.InstAltMatch:
			stack = append(stack, inst.Out, inst.Arg)
		case syntax.InstCapture, syntax.InstNop:
			stack = append(stack, inst.Out)
		case syntax.InstEmptyWidth:
			if syntax.EmptyOp(inst.Arg)&^flags == 0 {
				stack = append(stack, inst.Out)
			}
		case syntax.InstMatch:
			return dfaAccept
		case syntax.InstFail:
		default: // InstRune, InstRune1, InstRuneAny, InstRuneAnyNotNL
			consuming = append(consuming, pc)
		}
	}
	if eot {
		return dfaDead
	}
	next := make([]uint32, 0, len(consuming))
	for _, pc := range consuming {
		inst := &d.prog.Inst[pc]
		if instMatchRune(inst, r) {
			next = append(next, inst.Out)
		}
	}
	if len(next) == 0 {
		return dfaDead
	}
	sort.Slice(next, func(i, j int) bool { return next[i] < next[j] })
	w := 1
	for i := 1; i < len(next); i++ {
		if next[i] != next[i-1] {
			next[w] = next[i]
			w++
		}
	}
	return d.intern(next[:w], nextWord, false)
}

// instMatchRune is Inst.MatchRune with the any-char ops special-cased:
// their Rune slice is nil, which MatchRune reports as "no match".
func instMatchRune(inst *syntax.Inst, r rune) bool {
	switch inst.Op {
	case syntax.InstRuneAny:
		return true
	case syntax.InstRuneAnyNotNL:
		return r != '\n'
	}
	return inst.MatchRune(r)
}

func (d *dfa) intern(raw []uint32, prevWord, bot bool) *dState {
	key := make([]byte, 1, len(raw)*4+1)
	if prevWord {
		key[0] |= 1
	}
	if bot {
		key[0] |= 2
	}
	for _, pc := range raw {
		key = binary.LittleEndian.AppendUint32(key, pc)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if st, ok := d.states[string(key)]; ok {
		return st
	}
	if d.nStates >= maxDFAStates {
		// State explosion: permanently hand every decision to the
		// probe. Cached transitions to this accept are harmless —
		// accepts() re-checks the disabled flag after an accept and
		// reports it inexact. The flag is set before the accept is
		// returned, so whoever reads the cached accept sees the flag.
		d.disabled.Store(true)
		return dfaAccept
	}
	st := &dState{
		raw:      append([]uint32(nil), raw...),
		prevWord: prevWord,
		bot:      bot,
		next:     make([]atomic.Pointer[dState], d.numClasses+1),
	}
	d.states[string(key)] = st
	d.nStates++
	return st
}
