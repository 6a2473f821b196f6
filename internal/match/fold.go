// Package match compiles many regexp patterns into a single shared
// scan pass. An Aho–Corasick prefilter over case-folded bytes proposes
// candidate start positions (from literal factors every match must
// contain), a lazy byte-class DFA confirms or rejects each candidate,
// and an anchored stdlib regexp supplies the exact span and submatches
// only where the DFA accepts. The tests hold every pattern to its plain
// stdlib regexp, the differential oracle: by construction the
// candidate set is a superset of true match starts, candidates are
// visited in increasing order (so the leftmost match is found first),
// and the final span always comes from Go's own engine — so the output
// is byte-identical to a FindAll loop over the original pattern.
package match

// foldTable maps every byte to its ASCII case-folded form: A-Z fold to
// a-z, everything else is itself. Multi-byte fold traps (U+017F LATIN
// SMALL LETTER LONG S folds with 's', U+212A KELVIN SIGN folds with
// 'k') are handled by the symbol reader, not the table: their UTF-8
// encodings are recognised as units and emitted as the folded ASCII
// letter.
var foldTable [256]byte

func init() {
	for i := range foldTable {
		b := byte(i)
		if b >= 'A' && b <= 'Z' {
			b += 'a' - 'A'
		}
		foldTable[i] = b
	}
}

// wordByte mirrors regexp/syntax.IsWordChar for single bytes: \b in Go
// regexps is ASCII-only, so any byte ≥ 0x80 (including every UTF-8
// continuation byte) is a non-word byte, exactly as the rune it belongs
// to is a non-word rune.
var wordByte [256]bool

func init() {
	for i := range wordByte {
		b := byte(i)
		wordByte[i] = b == '_' ||
			(b >= '0' && b <= '9') || (b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z')
	}
}

func isWordByte(b byte) bool { return wordByte[b] }

// foldSym returns the case-folded symbol starting at text[i] and the
// number of bytes it consumes. The two Unicode simple-fold orbits that
// reach into ASCII are collapsed here so a folded literal containing
// 's' or 'k' still prefilters text spelled with U+017F or U+212A.
func foldSym(text string, i int) (sym byte, size int) {
	b := text[i]
	if b < 0x80 {
		return foldTable[b], 1
	}
	if b == 0xC5 && i+1 < len(text) && text[i+1] == 0xBF { // U+017F ſ
		return 's', 2
	}
	if b == 0xE2 && i+2 < len(text) && text[i+1] == 0x84 && text[i+2] == 0xAA { // U+212A K
		return 'k', 3
	}
	return b, 1
}
