package spamfilter

import "strings"

// FreqKey is one Layer 5 frequency key in hashed form. The tables count
// 64-bit FNV-1a digests of the normalized keys instead of the strings
// themselves: a collection-scale corpus has hundreds of thousands of
// unique keys, and content keys (normalized whole bodies) can run to
// kilobytes each, so hashing keeps the corpus-wide tables a small flat
// working set. A collision would merge two keys' counters — with 64-bit
// digests the chance over even a million keys is ~1e-7, far below any
// other source of model noise — and both run modes share this exact
// code, so they stay byte-identical to each other regardless. Layer 3's
// collaborative sets are keyed by the same digests, with the same
// argument: a collision there would taint one more sender or body.
type FreqKey uint64

// FreqKeys are one email's three Layer 5 frequency keys: its recipient
// address, sender address and normalized body.
type FreqKeys struct{ Rcpt, Sender, Content FreqKey }

// FreqTables holds Layer 5's corpus-wide frequency state: how often each
// recipient address, sender address and normalized body appeared among
// the layer 1–4 survivors. Classify builds one internally; streaming
// callers (core's chunked run) build one while they decide the corpus
// through layers 1–4, keep the survivors' keys, and replay them through
// ApplyLayer5 once the tables are complete, which is exactly the
// decomposition Classify performs in one sweep — same keys, same
// thresholds, same verdicts.
type FreqTables struct {
	rcpt    map[FreqKey]int
	sender  map[FreqKey]int
	content map[FreqKey]int
}

// NewFreqTables returns empty Layer 5 frequency state.
func NewFreqTables() *FreqTables {
	return &FreqTables{
		rcpt:    map[FreqKey]int{},
		sender:  map[FreqKey]int{},
		content: map[FreqKey]int{},
	}
}

// hashKey is the 64-bit FNV-1a digest (hash/fnv's New64a) of
// strings.Join(parts, sep), folded in place so no body is copied.
func hashKey(sep string, parts ...string) FreqKey {
	h := uint64(14695981039346656037)
	add := func(s string) {
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * 1099511628211
		}
	}
	for i, p := range parts {
		if i > 0 {
			add(sep)
		}
		add(p)
	}
	return FreqKey(h)
}

// contentKey normalizes a body for frequency comparison: the bag of
// words' signature when the bag is strong enough for Layer 3, so
// repeated automated mail collides regardless of whitespace, and the
// lowercased whitespace-folded text otherwise.
func contentKey(text string, bag []string, hasBag bool) FreqKey {
	if hasBag {
		return hashKey("\x00", bag...)
	}
	return hashKey(" ", strings.Fields(strings.ToLower(text))...)
}

// Add counts one layer 1–4 survivor's keys into the tables.
func (t *FreqTables) Add(k FreqKeys) {
	t.rcpt[k.Rcpt]++
	t.sender[k.Sender]++
	t.content[k.Content]++
}

// KeysExceed reports whether any of the keys crosses the classifier's
// Layer 5 threshold under the given tables.
func (c *Classifier) KeysExceed(t *FreqTables, k FreqKeys) bool {
	return t.rcpt[k.Rcpt] > c.cfg.RcptThreshold ||
		t.sender[k.Sender] > c.cfg.SenderThreshold ||
		t.content[k.Content] > c.cfg.ContentThreshold
}

// ApplyLayer5 reclassifies a layer 1–4 survivor as VerdictFrequency when
// its keys (from Prepare) exceed the thresholds under t; non-survivors
// pass through untouched. Classify calls this for every result after
// building the tables, so streaming replay through ApplyLayer5 is
// definitionally the same filter.
func (c *Classifier) ApplyLayer5(r *Result, k FreqKeys, t *FreqTables) {
	if r.Verdict.IsTrueTypo() && c.KeysExceed(t, k) {
		r.FreqOf = r.Verdict
		r.Verdict = VerdictFrequency
		r.Layer = 5
	}
}
