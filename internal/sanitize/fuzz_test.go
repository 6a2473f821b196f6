package sanitize

import (
	"strings"
	"testing"
)

// FuzzRedact asserts the two safety properties on arbitrary input: the
// output never contains a high-value identifier the scanner can still
// find with live digits, and redaction is idempotent. It also diffs
// Scan against the plain ScanOracle on every input.
func FuzzRedact(f *testing.F) {
	f.Add("Amex 371385129301004 Exp 06/03")
	f.Add("ssn 078-05-1120 password: hunter2 call 412-268-5000")
	f.Add("plain text, nothing here")
	f.Add("username: alice@gmail.com Pittsburgh, PA 15213")
	for _, text := range gateCases {
		f.Add(text)
	}
	s := New("fuzz-salt")
	f.Fuzz(func(t *testing.T, text string) {
		if eng, ora := Scan(text), ScanOracle(text); !sameFindings(eng, ora) {
			t.Fatalf("engine differs from oracle on %q:\n engine: %v\n oracle: %v", text, eng, ora)
		}
		once, _ := s.Redact(text)
		twice, _ := s.Redact(once)
		if once != twice {
			t.Fatalf("not idempotent:\n%q\n%q", once, twice)
		}
		for _, finding := range Scan(once) {
			switch finding.Kind {
			case KindCreditCard, KindSSN, KindEIN, KindVIN:
				if strings.ContainsAny(finding.Match, "123456789") &&
					!strings.Contains(finding.Match, "*_|R|_*") {
					t.Fatalf("%s %q survived redaction of %q", finding.Kind, finding.Match, text)
				}
			}
		}
	})
}
