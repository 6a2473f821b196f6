package match

import (
	"fmt"
	"regexp"
	"regexp/syntax"
	"sort"
	"sync"
)

// Engine holds a set of compiled patterns sharing one prefilter pass.
// An Engine is immutable after Compile and safe for concurrent use;
// per-text state lives in pooled Scan handles.
type Engine struct {
	pats []*pat
	ac   *acAuto
	lits []acLitMeta
	pool sync.Pool
}

// acLitMeta ties one AC literal back to its pattern: where the match
// start sits relative to the literal (offset window or backwalk class)
// and whether a non-word byte must precede the start.
type acLitMeta struct {
	pat            int32
	minPre, maxPre int32
	back           *[256]bool
	first          *[256]bool // bytes a match can start with, or nil
	needNW         bool
}

type pat struct {
	src    string
	mode   int
	re     *regexp.Regexp // the pattern exactly as given, for modeFallback
	re0    *regexp.Regexp // \A(?:src) — anchored probe at a candidate
	reCtx  *regexp.Regexp // (?s)\A.(?:src) — probe with one context byte for \b
	d      *dfa
	first  *[256]bool
	needNW bool
}

// Compile builds an engine over the given patterns. Pattern indices in
// the returned engine follow the argument order. Each pattern is also
// compiled with the stdlib, which a pattern the engine cannot analyze
// runs on; Compile fails if any pattern fails stdlib compilation.
func Compile(patterns []string) (*Engine, error) {
	e := &Engine{}
	lits := make([]string, 0, 4*len(patterns))
	for id, src := range patterns {
		//repolint:allow allochot compiling each pattern once is Compile's whole job; the loop is per-pattern, not per-scan
		re, err := regexp.Compile(src)
		if err != nil {
			return nil, fmt.Errorf("match: pattern %d: %w", id, err)
		}
		parsed, err := syntax.Parse(src, syntax.Perl)
		if err != nil {
			return nil, fmt.Errorf("match: pattern %d: %w", id, err)
		}
		sim := parsed.Simplify()
		a := analyze(sim)
		p := &pat{src: src, mode: a.mode, re: re}
		if a.mode != modeFallback {
			//repolint:allow allochot the anchored probe variants are built once per pattern at compile time
			p.re0, err = regexp.Compile(`\A(?:` + src + `)`)
			if err == nil {
				//repolint:allow allochot the anchored probe variants are built once per pattern at compile time
				p.reCtx, err = regexp.Compile(`(?s)\A.(?:` + src + `)`)
			}
			if err != nil {
				// A pattern the stdlib accepts bare but not wrapped
				// (should not happen): keep it on the plain stdlib path.
				p.mode, p.re0, p.reCtx = modeFallback, nil, nil
			} else {
				p.d = compileDFA(sim)
			}
		}
		switch p.mode {
		case modeFactors:
			for _, f := range a.factors {
				lits = append(lits, f.lit)
				e.lits = append(e.lits, acLitMeta{
					pat:    int32(id),
					minPre: int32(f.minPre),
					maxPre: int32(f.maxPre),
					back:   f.back,
					first:  a.firstSet,
					needNW: f.needNW,
				})
			}
		case modeFirstByte:
			p.first, p.needNW = a.first, a.needNW
		}
		e.pats = append(e.pats, p)
	}
	if len(lits) > 0 {
		e.ac = buildAC(lits)
	}
	e.pool.New = func() any { return e.newScan() }
	return e, nil
}

// MustCompile is Compile panicking on error, for package-level engines
// over constant pattern sets.
func MustCompile(patterns ...string) *Engine {
	e, err := Compile(patterns)
	if err != nil {
		panic(err)
	}
	return e
}

// Mode reports the scan strategy chosen for pattern id, for tests that
// pin which patterns actually exercise the prefilter.
func (e *Engine) Mode(id int) string {
	switch e.pats[id].mode {
	case modeFactors:
		return "factors"
	case modeFirstByte:
		return "firstbyte"
	case modeBOT:
		return "bot"
	}
	return "fallback"
}

// Scan is a per-text query handle. It is cheap to obtain (pooled) and
// holds the candidate positions the shared AC pass produced for every
// pattern. A Scan must not be used concurrently; Engines may run many
// Scans in parallel.
type Scan struct {
	e     *Engine
	text  string
	ring  []int32
	cands [][]cand
	ready []bool
}

// cand is one candidate match start: a match may begin at any offset
// in [at, last]. Offset-window and first-byte candidates stand for
// their own offset only (last == at); a backwalk candidate stands for
// every offset from the walk's end up to its literal, so a previous
// match that ends inside that run still leaves a start at its end.
type cand struct{ at, last int32 }

// from returns where to probe c given that matches resume at resume,
// or -1 when c lies wholly before resume.
func (c cand) from(resume int) int {
	switch {
	case int(c.at) >= resume:
		return int(c.at)
	case int(c.last) >= resume:
		return resume
	}
	return -1
}

func (e *Engine) newScan() *Scan {
	ringSize := 1
	if e.ac != nil {
		ringSize = e.ac.ringSize
	}
	return &Scan{
		e:     e,
		ring:  make([]int32, ringSize),
		cands: make([][]cand, len(e.pats)),
		ready: make([]bool, len(e.pats)),
	}
}

// Scan runs the shared prefilter pass once over text and returns a
// handle answering FindAll/Match/Count for every pattern.
func (e *Engine) Scan(text string) *Scan {
	s := e.pool.Get().(*Scan)
	s.text = text
	for i := range s.cands {
		s.cands[i] = s.cands[i][:0]
		s.ready[i] = false
	}
	if e.ac != nil {
		e.ac.scan(text, s)
	}
	return s
}

// Release returns the handle to the pool; the handle must not be used
// afterwards.
func (s *Scan) Release() {
	s.text = ""
	s.e.pool.Put(s)
}

// emit records the candidate start position(s) implied by one literal
// occurrence. Called from the AC scan loop.
func (s *Scan) emit(lit, start int32) {
	m := &s.e.lits[lit]
	text := s.text
	if m.back != nil {
		// Walk left over the unbounded prefix class. Linear overall:
		// Compile guarantees the class excludes the literal's first
		// byte, so the walk stops at the previous occurrence.
		q := start
		for q > 0 && m.back[text[q-1]] {
			q--
		}
		if m.first != nil && !m.first[text[q]] {
			return
		}
		s.cands[m.pat] = append(s.cands[m.pat], cand{q, start})
		return
	}
	hi := start - m.minPre
	if hi < 0 {
		return
	}
	lo := start - m.maxPre
	if lo < 0 {
		lo = 0
	}
	for q := lo; q <= hi; q++ {
		if m.first != nil && !m.first[text[q]] {
			continue
		}
		if m.needNW && q > 0 && isWordByte(text[q-1]) {
			continue
		}
		s.cands[m.pat] = append(s.cands[m.pat], cand{q, q})
	}
}

// prepare finalises the candidate list for pattern id: first-byte
// patterns scan lazily (they are usually behind caller-side gates),
// factor patterns sort and dedup what the AC pass emitted.
func (s *Scan) prepare(id int) []cand {
	if s.ready[id] {
		return s.cands[id]
	}
	s.ready[id] = true
	p := s.e.pats[id]
	switch p.mode {
	case modeFirstByte:
		text := s.text
		c := s.cands[id][:0]
		for i := 0; i < len(text); i++ {
			if p.first[text[i]] {
				if p.needNW && i > 0 && isWordByte(text[i-1]) {
					continue
				}
				c = append(c, cand{int32(i), int32(i)})
			}
		}
		s.cands[id] = c
	case modeBOT:
		s.cands[id] = append(s.cands[id][:0], cand{})
	case modeFactors:
		c := s.cands[id]
		sorted := true
		for i := 1; i < len(c); i++ {
			if c[i].at < c[i-1].at {
				sorted = false
				break
			}
		}
		if !sorted {
			sort.Slice(c, func(i, j int) bool { return c[i].at < c[j].at })
		}
		w := 0
		for i := 0; i < len(c); i++ {
			switch {
			case w == 0 || c[i].at != c[w-1].at:
				c[w] = c[i]
				w++
			case c[i].last > c[w-1].last:
				c[w-1].last = c[i].last
			}
		}
		s.cands[id] = c[:w]
	}
	return s.cands[id]
}

// FindAll calls yield with the submatch index slice (as from
// FindStringSubmatchIndex) of every non-overlapping match of pattern
// id, leftmost first — the same sequence the stdlib regexp's
// FindAllStringSubmatchIndex produces. The slice is only valid during the call. Returning
// false from yield stops the iteration early.
func (s *Scan) FindAll(id int, yield func(idx []int) bool) {
	p := s.e.pats[id]
	text := s.text
	if p.mode == modeFallback {
		for _, idx := range p.re.FindAllStringSubmatchIndex(text, -1) {
			if !yield(idx) {
				return
			}
		}
		return
	}
	resume, tried := 0, -1
	for _, cd := range s.prepare(id) {
		c := cd.from(resume)
		if c <= tried {
			continue
		}
		tried = c
		if ok, _ := p.d.accepts(text, c); !ok {
			continue
		}
		idx := s.probe(p, c)
		if idx == nil {
			continue
		}
		if !yield(idx) {
			return
		}
		resume = idx[1]
		if resume <= c {
			resume = c + 1
		}
	}
}

// Match reports whether pattern id matches anywhere in the text, like
// the stdlib regexp's MatchString. Only existence is asked, so an exact DFA
// verdict settles a candidate; the probe runs only where the DFA could
// not decide.
func (s *Scan) Match(id int) bool {
	p := s.e.pats[id]
	if p.mode == modeFallback {
		return p.re.MatchString(s.text)
	}
	for _, cd := range s.prepare(id) {
		c := int(cd.at)
		ok, exact := p.d.accepts(s.text, c)
		if ok && (exact || s.probeEnd(p, c) >= 0) {
			return true
		}
	}
	return false
}

// Count returns the number of non-overlapping matches of pattern id,
// capped at max (max < 0 means unlimited): exactly the stdlib regexp's
// len(FindAllString(text, max)).
func (s *Scan) Count(id, max int) int {
	if max == 0 {
		return 0
	}
	p := s.e.pats[id]
	text := s.text
	if p.mode == modeFallback {
		return len(p.re.FindAllStringIndex(text, max))
	}
	n, resume, tried := 0, 0, -1
	for _, cd := range s.prepare(id) {
		c := cd.from(resume)
		if c <= tried {
			continue
		}
		tried = c
		if ok, _ := p.d.accepts(text, c); !ok {
			continue
		}
		end := s.probeEnd(p, c)
		if end < 0 {
			continue
		}
		n++
		if max >= 0 && n >= max {
			break
		}
		resume = end
		if resume <= c {
			resume = c + 1
		}
	}
	return n
}

// probe runs the anchored stdlib pattern at candidate c and maps the
// submatch indices back into text coordinates. When the byte before c
// is an ASCII word byte the probe includes it (consumed by the leading
// `.`), preserving \b context; otherwise anchoring at c is exact —
// after a non-word rune, \b and \B reduce to the same "is the next
// rune a word rune" test they perform at begin-of-text.
func (s *Scan) probe(p *pat, c int) []int {
	text := s.text
	if c > 0 && isWordByte(text[c-1]) {
		idx := p.reCtx.FindStringSubmatchIndex(text[c-1:])
		if idx == nil {
			return nil
		}
		for k := range idx {
			if idx[k] >= 0 {
				idx[k] += c - 1
			}
		}
		idx[0] = c
		return idx
	}
	idx := p.re0.FindStringSubmatchIndex(text[c:])
	if idx == nil {
		return nil
	}
	for k := range idx {
		if idx[k] >= 0 {
			idx[k] += c
		}
	}
	return idx
}

// probeEnd is probe without submatches: the match end offset, or -1.
func (s *Scan) probeEnd(p *pat, c int) int {
	text := s.text
	if c > 0 && isWordByte(text[c-1]) {
		loc := p.reCtx.FindStringIndex(text[c-1:])
		if loc == nil {
			return -1
		}
		return c - 1 + loc[1]
	}
	loc := p.re0.FindStringIndex(text[c:])
	if loc == nil {
		return -1
	}
	return c + loc[1]
}
