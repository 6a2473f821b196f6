package sanitize

import (
	"fmt"
	"reflect"
	"testing"
)

// gateCases covers every detector's engGate, near-misses the gates must
// not mistake for impossibilities, and the Unicode case-folding traps
// ((?i) folds U+017F to 's' and U+212A to 'k', which an ASCII keyword
// scan cannot see).
var gateCases = []string{
	"",
	"plain prose with no identifiers at all",
	"reach me at alice.smith@example.com today",
	"my card is 4111 1111 1111 1111 thanks",
	"ssn 219-09-9999 on file",
	"ein 12-3456789 for the llc",
	"password: hunter2!",
	"Passphrase correct-horse-battery-staple",
	"pwd=abc123",
	"the vin is 1M8GDM9AXKP042788 ok",
	"username is jdoe42",
	"login: root",
	"Pittsburgh, PA 15213-1234",
	"zip code 90210",
	"account number is 445-0098-X",
	"mrn: 88811122",
	"call 412-268-3000 or (212) 555-0199",
	"due 3/14/2016 or 2016-03-14 or March 14, 2016",
	"paſsword is hunter2",          // U+017F long s folds to 's'
	"uſername is jdoe",             // ditto inside "user"
	"ID\u017F is 12345678",         // non-ASCII near the id keyword
	"d\u00e9c 14, 2016 total 1234", // accented non-month, digits present
	"12345678901234567",            // 17-digit run: vin gate fires, validator rejects
	"passwood is not a keyword hit for passw... or is it",
	"identification = A1B2C3D4",
	"no digits but pass and user and id words everywhere",
	"1-2-3-4-5-6-7-8-9",
	"ABCDEFGHJKLMNPRSTU",    // 18-char alnum run, no valid vin
	"99999 44444 333 22 11", // digit runs without context
}

// engineCases extends gateCases with inputs aimed at the multi-pattern
// engine specifically: literal-prefilter edges, backwalk anchors, fold
// traps inside month and keyword literals, and byte soup the byte-class
// DFA must classify exactly like the oracle.
var engineCases = append([]string{
	"@@@@a@b.cc@d.ee",
	"joe@ex.com jane@ex.org bob@sub.domain.example.travel",
	"\u212Aelvin kelvin KELVIN \u017F\u017F\u017Fn",
	"de\u017F 14, 2016 and dec 14, 2016",
	"pa\u017F\u017Fword is hunter2 and u\u017Fername is jdoe",
	"\x80\xfe\xffpassword is \xc3\x28 bad utf8 4111 1111 1111 1111",
	"a\x00b password\x00is\x00secret123",
	"078-05-1120",
	"x078-05-1120y 12-3456789z",
	"(412) 268 3000 +1 412.268.3000 1-412-268-3000",
	"zip 15213 , PA 15213 ,PA 15213",
	"id = 12345678 account number is AB-9912 policy no. 7788",
	"1HGCM82633A004352 and 1M8GDM9AXKP042788 back to back 1HGCM82633A0043521M8GDM9AXKP042788",
}, gateCases...)

// scanEngineUngated is the engine path with every engGate skipped, to
// prove the gates themselves never drop a finding.
func scanEngineUngated(text string) []Finding {
	var out []Finding
	var gbuf [4]string
	s := engine.Scan(text)
	for i := range detectors {
		d := &detectors[i]
		s.FindAll(i, func(idx []int) bool {
			groups := submatchInto(gbuf[:0], text, idx)
			label, ok := "", true
			if d.validate != nil {
				label, ok = d.validate(groups)
			}
			if ok {
				gs, ge := idx[2*d.group], idx[2*d.group+1]
				out = append(out, Finding{
					Kind: d.kind, Match: text[gs:ge], Start: gs, End: ge, Label: label,
				})
			}
			return true
		})
	}
	s.Release()
	sortFindings(out)
	return out
}

func sameFindings(a, b []Finding) bool {
	if len(a) == 0 && len(b) == 0 {
		return true
	}
	return reflect.DeepEqual(a, b)
}

// TestGateEquivalence is the false-negative proof obligation for the
// engGates: on every case, gated and ungated engine scans must return
// identical findings.
func TestGateEquivalence(t *testing.T) {
	for _, text := range gateCases {
		gated := Scan(text)
		ungated := scanEngineUngated(text)
		if !sameFindings(gated, ungated) {
			t.Errorf("gated scan differs on %q:\n gated:   %v\n ungated: %v", text, gated, ungated)
		}
	}
}

// FuzzGateEquivalence extends the gated-vs-ungated check to arbitrary
// mutations of the seed cases.
func FuzzGateEquivalence(f *testing.F) {
	for _, text := range gateCases {
		f.Add(text)
	}
	f.Fuzz(func(t *testing.T, text string) {
		gated := Scan(text)
		ungated := scanEngineUngated(text)
		if !sameFindings(gated, ungated) {
			t.Fatalf("gated scan differs on %q:\n gated:   %v\n ungated: %v", text, gated, ungated)
		}
	})
}

// TestEngineOracleEquivalence is the sanitizer-level differential proof:
// on every case the engine path, the engine path without engGates and
// the plain oracle return identical findings.
func TestEngineOracleEquivalence(t *testing.T) {
	for _, text := range engineCases {
		eng := Scan(text)
		engUngated := scanEngineUngated(text)
		oracle := ScanOracle(text)
		if !sameFindings(eng, oracle) {
			t.Errorf("engine differs from oracle on %q:\n engine: %v\n oracle: %v", text, eng, oracle)
		}
		if !sameFindings(eng, engUngated) {
			t.Errorf("engGate drops findings on %q:\n gated:   %v\n ungated: %v", text, eng, engUngated)
		}
	}
}

// TestRedactEquivalence requires byte-identical redaction output
// between the engine and oracle paths — the end-to-end guarantee the
// collection pipeline depends on.
func TestRedactEquivalence(t *testing.T) {
	s := New("differential-salt")
	for _, text := range engineCases {
		cleanEng, fEng := s.Redact(text)
		cleanOra, fOra := s.RedactOracle(text)
		if cleanEng != cleanOra {
			t.Errorf("redacted output differs on %q:\n engine: %q\n oracle: %q", text, cleanEng, cleanOra)
		}
		if !sameFindings(fEng, fOra) {
			t.Errorf("redact findings differ on %q", text)
		}
	}
}

// TestScanKindsEquivalence pins ScanKinds == the kind set of the plain
// oracle's findings.
func TestScanKindsEquivalence(t *testing.T) {
	maskOf := func(fs []Finding) uint16 {
		var m uint16
		for _, f := range fs {
			m |= KindBit(f.Kind)
		}
		return m
	}
	for _, text := range engineCases {
		if got, want := ScanKinds(text), maskOf(ScanOracle(text)); got != want {
			t.Errorf("ScanKinds(%q) = %04x, oracle kinds %04x", text, got, want)
		}
	}
}

// TestKindBit pins the bit layout: one distinct bit per kind, zero for
// unknown kinds.
func TestKindBit(t *testing.T) {
	seen := map[uint16]Kind{}
	for _, k := range AllKinds() {
		b := KindBit(k)
		if b == 0 {
			t.Fatalf("KindBit(%s) = 0", k)
		}
		if prev, dup := seen[b]; dup {
			t.Fatalf("KindBit collision: %s and %s", prev, k)
		}
		seen[b] = k
	}
	if KindBit(Kind("nosuch")) != 0 {
		t.Fatal("KindBit of unknown kind should be 0")
	}
}

func ExampleScan() {
	for _, f := range Scan("password: hunter2, card 4111 1111 1111 1111") {
		fmt.Println(f.Kind, f.Match)
	}
	// Output:
	// password hunter2,
	// creditcard 4111 1111 1111 1111
}
