package sanitize

import "regexp"

// This file keeps the sanitizer's one plain oracle: every detector's
// pattern compiled with the stdlib and run over the whole text, with
// nothing gated or prefiltered. The differential tests (engine_test.go,
// enginecorpus_test.go, FuzzRedact) hold Scan and Redact to it.

// oracleRE is each detector's pattern compiled with the stdlib, indexed
// like detectors.
var oracleRE = func() []*regexp.Regexp {
	res := make([]*regexp.Regexp, len(detectors))
	for i := range detectors {
		res[i] = regexp.MustCompile(detectors[i].pattern)
	}
	return res
}()

// ScanOracle is the plain reference Scan is differentially tested
// against: each detector's stdlib regexp runs over the whole text
// (FindAllStringSubmatchIndex(text, -1)) and its matches go through
// validate. It is exported to the package's external tests.
func ScanOracle(text string) []Finding {
	var out []Finding
	var gbuf [4]string // widest detector has 3 capture groups + whole
	for i := range detectors {
		d := &detectors[i]
		for _, idx := range oracleRE[i].FindAllStringSubmatchIndex(text, -1) {
			groups := submatchInto(gbuf[:0], text, idx)
			label, ok := "", true
			if d.validate != nil {
				label, ok = d.validate(groups)
			}
			if !ok {
				continue
			}
			gs, ge := idx[2*d.group], idx[2*d.group+1]
			out = append(out, Finding{
				Kind: d.kind, Match: text[gs:ge], Start: gs, End: ge, Label: label,
			})
		}
	}
	sortFindings(out)
	return out
}

// RedactOracle is Redact over ScanOracle's findings: the plain
// redaction path, for byte-for-byte differential comparison.
func (s *Sanitizer) RedactOracle(text string) (string, []Finding) {
	return s.redact(text, ScanOracle(text))
}
