package spamfilter

import (
	"fmt"
	"strings"
	"testing"
)

// TestFactMemoGenerations pins the memo's two-generation policy: a hit
// in the old generation promotes the entry so it outlives the next
// turnover, an entry nobody asked for is evicted after two, no more
// than two generations' entries and bytes are ever held, and content
// larger than a generation is not memoized at all.
func TestFactMemoGenerations(t *testing.T) {
	var m factMemo
	key := func(i int) contentID { return contentID{body: fmt.Sprintf("body %d", i)} }
	facts := func(i int) contentFacts { return contentFacts{content: FreqKey(i)} }
	check := func(i int, wantHit bool) {
		t.Helper()
		f, ok := m.get(key(i))
		if ok != wantHit || ok && f != facts(i) {
			t.Fatalf("get(%d) = %v %v, want hit %v", i, f, ok, wantHit)
		}
	}
	bounded := func() {
		t.Helper()
		if n := len(m.young) + len(m.old); n > 2*memoEntries {
			t.Fatalf("memo holds %d entries, bound %d", n, 2*memoEntries)
		}
		if m.youngBytes > memoBytes {
			t.Fatalf("young generation holds %d bytes, bound %d", m.youngBytes, memoBytes)
		}
	}
	for i := 0; i < memoEntries; i++ {
		m.put(key(i), facts(i))
	}
	check(0, true)
	m.put(key(memoEntries), facts(memoEntries)) // turnover: 0..511 are old
	check(1, true)                              // promoted into the young generation
	for i := memoEntries + 1; i < 2*memoEntries+1; i++ {
		m.put(key(i), facts(i))
		bounded()
	}
	// A second turnover dropped the first generation: 1 survives by its
	// promotion, 2 is gone.
	check(1, true)
	check(2, false)
	check(2*memoEntries, true)

	big := contentID{body: strings.Repeat("x", memoBytes+1)}
	m.put(big, facts(-1))
	if _, ok := m.get(big); ok {
		t.Fatal("content larger than a generation was memoized")
	}
	// A byte budget turns generations over before the entry count does.
	var b factMemo
	half := strings.Repeat("y", memoBytes/2)
	for i := 0; i < 3; i++ {
		b.put(contentID{subject: fmt.Sprint(i), body: half}, facts(i))
	}
	if len(b.young) != 1 || len(b.old) != 1 || b.youngBytes > memoBytes {
		t.Fatalf("byte bound: young %d entries (%d bytes), old %d entries", len(b.young), b.youngBytes, len(b.old))
	}
}
