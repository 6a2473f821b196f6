// Package distance implements the string distance metrics the paper's
// typosquatting taxonomy is built on (Section 3): the Damerau-Levenshtein
// edit distance, Moore and Edelman's fat-finger distance (edits restricted
// to QWERTY-adjacent keys), and a heuristic visual distance capturing how
// easily the mistyped name is confused with the original at a glance.
package distance

import (
	"strings"
	"sync"
)

// qwertyRows is the physical layout used for adjacency and fat-finger
// computations. Row offsets approximate the stagger of a standard QWERTY
// keyboard.
var qwertyRows = []struct {
	keys   string
	offset float64 // horizontal offset of the row, in key widths
	row    int
}{
	{"1234567890-", 0.0, 0},
	{"qwertyuiop", 0.5, 1},
	{"asdfghjkl", 0.75, 2},
	{"zxcvbnm", 1.25, 3},
}

type keyPos struct {
	x, y float64
	ok   bool
}

var keyPositions = buildKeyPositions()

func buildKeyPositions() map[rune]keyPos {
	m := make(map[rune]keyPos)
	for _, r := range qwertyRows {
		for i, ch := range r.keys {
			m[ch] = keyPos{x: r.offset + float64(i), y: float64(r.row), ok: true}
		}
	}
	return m
}

// KeyboardDistance returns the Euclidean distance between two keys on a
// QWERTY keyboard, in key widths. Unknown characters (valid in domain
// names but off the main key block, e.g. '.') report a large distance and
// ok=false.
func KeyboardDistance(a, b rune) (float64, bool) {
	pa, oka := keyPositions[lower(a)]
	pb, okb := keyPositions[lower(b)]
	if !oka || !okb {
		return 10, false
	}
	dx := pa.x - pb.x
	dy := pa.y - pb.y
	return sqrt(dx*dx + dy*dy), true
}

// numKeys is the size of the main key block in qwertyRows.
const numKeys = 37

// keyTable is the fat-finger relation over the main key block, worked
// out from KeyboardDistance on first use (not at package init, which
// every process pays) so Adjacent and Neighbors are lookups.
type keyTable struct {
	index     [128]int8       // lower-case key rune -> key number, -1 off the block
	adj       [numKeys]uint64 // bit j of adj[i]: keys i and j are adjacent
	neighbors [numKeys][]rune // adjacent keys in qwertyRows order
}

var keys = sync.OnceValue(buildKeyTable)

func buildKeyTable() *keyTable {
	t := &keyTable{}
	for i := range t.index {
		t.index[i] = -1
	}
	runes := make([]rune, 0, numKeys)
	for _, r := range qwertyRows {
		for _, ch := range r.keys {
			t.index[ch] = int8(len(runes))
			runes = append(runes, ch)
		}
	}
	// KeyboardDistance is symmetric, so each pair is measured once.
	for i := range runes {
		for j := i + 1; j < len(runes); j++ {
			if d, _ := KeyboardDistance(runes[i], runes[j]); d < 1.5 {
				t.adj[i] |= 1 << j
				t.adj[j] |= 1 << i
			}
		}
	}
	all := make([]rune, 0, 8*numKeys)
	for i := range runes {
		start := len(all)
		for j, ch := range runes {
			if t.adj[i]>>j&1 != 0 {
				all = append(all, ch)
			}
		}
		t.neighbors[i] = all[start:len(all):len(all)]
	}
	return t
}

// key returns r's key number, or -1 when r is off the main key block.
func (t *keyTable) key(r rune) int {
	r = lower(r)
	if r < 0 || r >= 128 {
		return -1
	}
	return int(t.index[r])
}

// Adjacent reports whether two keys are adjacent on a QWERTY keyboard —
// the "fat finger" relation of Moore and Edelman: distinct keys less
// than 1.5 key widths apart by KeyboardDistance. A key is not adjacent
// to itself.
func Adjacent(a, b rune) bool {
	t := keys()
	i, j := t.key(a), t.key(b)
	return i >= 0 && j >= 0 && t.adj[i]>>j&1 != 0
}

// Neighbors returns the set of keys adjacent to ch on a QWERTY keyboard,
// in stable order, or nil when ch is off the key block. The slice is
// shared: callers must not modify it.
func Neighbors(ch rune) []rune {
	t := keys()
	i := t.key(ch)
	if i < 0 {
		return nil
	}
	return t.neighbors[i]
}

func lower(r rune) rune {
	if r >= 'A' && r <= 'Z' {
		return r - 'A' + 'a'
	}
	return r
}

func sqrt(x float64) float64 {
	// Newton iterations; avoids importing math for one call and keeps the
	// package allocation-free in hot paths.
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 20; i++ {
		z = (z + x/z) / 2
	}
	return z
}

// SLD returns the second-level label of a domain name ("gmail" for
// "gmail.com"), which is where typos are generated and measured; the TLD
// is held fixed by the paper's methodology.
func SLD(domain string) string {
	domain = strings.TrimSuffix(domain, ".")
	parts := strings.Split(domain, ".")
	if len(parts) < 2 {
		return domain
	}
	return parts[len(parts)-2]
}

// TLD returns the top-level label ("com" for "gmail.com"), or "" if the
// name has a single label.
func TLD(domain string) string {
	domain = strings.TrimSuffix(domain, ".")
	i := strings.LastIndexByte(domain, '.')
	if i < 0 {
		return ""
	}
	return domain[i+1:]
}
