package sanitize

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func kindsOf(text string) map[Kind]bool {
	m := map[Kind]bool{}
	for _, k := range Kinds(Scan(text)) {
		m[k] = true
	}
	return m
}

func TestCreditCardDetection(t *testing.T) {
	tests := []struct {
		text  string
		want  bool
		brand string
	}{
		{"Amex 371385129301004 Exp 06/03", true, "americanexpress"}, // the Figure 2 example
		{"visa 4111111111111111 on file", true, "visa"},
		{"mc 5500005555555559 thanks", true, "mastercard"},
		{"diners 30569309025904 ok", true, "dinersclub"},
		{"jcb 3530111333300000 ok", true, "jcb"},
		{"card 4111 1111 1111 1111 spaced", true, "visa"},
		{"card 4111-1111-1111-1111 dashed", true, "visa"},
		{"fails luhn 4111111111111112", false, ""},
		{"too short 411111111111", false, ""},
		{"order number 1234567890123456", false, ""}, // fails Luhn
	}
	for _, tc := range tests {
		findings := Scan(tc.text)
		var got *Finding
		for i := range findings {
			if findings[i].Kind == KindCreditCard {
				got = &findings[i]
			}
		}
		if (got != nil) != tc.want {
			t.Errorf("Scan(%q) creditcard = %v, want %v", tc.text, got != nil, tc.want)
			continue
		}
		if got != nil && got.Label != tc.brand {
			t.Errorf("Scan(%q) brand = %q, want %q", tc.text, got.Label, tc.brand)
		}
	}
}

func TestSSNDetection(t *testing.T) {
	tests := []struct {
		text string
		want bool
	}{
		{"my ssn is 078-05-1120", true},
		{"000-12-3456 invalid area", false},
		{"666-12-3456 invalid area", false},
		{"900-12-3456 invalid area", false},
		{"123-00-4567 invalid group", false},
		{"123-45-0000 invalid serial", false},
		{"no ssn here 123-456-789", false},
	}
	for _, tc := range tests {
		if got := kindsOf(tc.text)[KindSSN]; got != tc.want {
			t.Errorf("SSN in %q = %v, want %v", tc.text, got, tc.want)
		}
	}
}

func TestEINDetection(t *testing.T) {
	if !kindsOf("our EIN: 12-3456789 for taxes")[KindEIN] {
		t.Error("EIN not detected")
	}
	if kindsOf("range 12-345")[KindEIN] {
		t.Error("short number misdetected as EIN")
	}
}

func TestPasswordDetection(t *testing.T) {
	tests := []struct {
		text string
		want bool
	}{
		{"password: hunter2", true},
		{"Password = S3cr3t!", true},
		{"your pwd is qwerty123", true},
		{"password reset instructions follow", false},
		{"the password policy requires", false},
		{"passphrase: correct-horse", true},
	}
	for _, tc := range tests {
		if got := kindsOf(tc.text)[KindPassword]; got != tc.want {
			t.Errorf("password in %q = %v, want %v", tc.text, got, tc.want)
		}
	}
}

func TestVINDetection(t *testing.T) {
	vin, ok := ComputeVINCheckDigit("1HGBH41JXMN109186")
	if !ok {
		t.Fatal("ComputeVINCheckDigit failed")
	}
	if !kindsOf("car vin " + vin + " registered")[KindVIN] {
		t.Errorf("valid VIN %q not detected", vin)
	}
	bad := vin[:8] + "0" + vin[9:]
	if vin[8] == '0' {
		bad = vin[:8] + "1" + vin[9:]
	}
	if kindsOf("car vin " + bad)[KindVIN] {
		t.Error("bad check digit accepted")
	}
	if kindsOf("12345678901234567")[KindVIN] {
		t.Error("all-digit string accepted as VIN")
	}
	if kindsOf("ABCDEFGH")[KindVIN] {
		t.Error("short string accepted as VIN")
	}
}

func TestUsernameDetection(t *testing.T) {
	if !kindsOf("username: jlavorato")[KindUsername] {
		t.Error("username not detected")
	}
	if !kindsOf("your login is enron77")[KindUsername] {
		t.Error("login not detected")
	}
	if kindsOf("the username for that form")[KindUsername] {
		t.Error("prose continuation misdetected")
	}
}

func TestZipDetection(t *testing.T) {
	tests := []struct {
		text string
		want bool
	}{
		{"Pittsburgh, PA 15213", true},
		{"zip: 90210", true},
		{"Zip code 10001 please", true},
		{"order 12345 shipped", false}, // bare five digits: no context
	}
	for _, tc := range tests {
		if got := kindsOf(tc.text)[KindZip]; got != tc.want {
			t.Errorf("zip in %q = %v, want %v", tc.text, got, tc.want)
		}
	}
}

func TestIDNumberDetection(t *testing.T) {
	if !kindsOf("account number: 889944xy")[KindIDNumber] {
		t.Error("account number not detected")
	}
	if !kindsOf("member no. = A1B2C3")[KindIDNumber] {
		t.Error("member number not detected")
	}
}

func TestEmailDetection(t *testing.T) {
	if !kindsOf("contact alice.smith+work@sub.example.co.uk ok")[KindEmail] {
		t.Error("email not detected")
	}
	if kindsOf("not an email: alice at example dot com")[KindEmail] {
		t.Error("false email")
	}
}

// TestRedactAdjacentEmails: a second address that starts exactly where
// the first one ends is redacted too, not left in clear text.
func TestRedactAdjacentEmails(t *testing.T) {
	clean, findings := New("salt").Redact("0@0.AA0@0.AA")
	emails := 0
	for _, f := range findings {
		if f.Kind == KindEmail {
			emails++
		}
	}
	if emails != 2 {
		t.Errorf("got %d email findings, want 2: %+v", emails, findings)
	}
	if strings.Contains(clean, "@0.AA") {
		t.Errorf("address survives redaction: %q", clean)
	}
}

func TestPhoneDetection(t *testing.T) {
	tests := []struct {
		text string
		want bool
	}{
		{"call 412-268-5000", true},
		{"call (412) 268-5000", true},
		{"call +1 412.268.5000", true},
		{"call 4122685000x", false},
	}
	for _, tc := range tests {
		if got := kindsOf(tc.text)[KindPhone]; got != tc.want {
			t.Errorf("phone in %q = %v, want %v", tc.text, got, tc.want)
		}
	}
}

func TestDateDetection(t *testing.T) {
	for _, text := range []string{"due 06/03/2016", "on 2016-06-04", "met January 5, 2017", "by Mar 3rd, 2017", "short 6/3/16"} {
		if !kindsOf(text)[KindDate] {
			t.Errorf("date not detected in %q", text)
		}
	}
	if kindsOf("version 1.2.3")[KindDate] {
		t.Error("version string misdetected as date")
	}
}

func TestRedactFigure2Example(t *testing.T) {
	// The paper's Figure 2 walkthrough.
	orig := "John Lavorato\nAmex 371385129301004 Exp 06/03\nBook us 3 rooms and make sure that we can have 2 beds in one of the rooms.\nThanks\nJohn"
	s := New("salt-on-removable-media")
	clean, findings := s.Redact(orig)
	if strings.Contains(clean, "371385129301004") {
		t.Fatal("card number survived redaction")
	}
	if !strings.Contains(clean, "*_|R|_*americanexpress*") {
		t.Errorf("redaction token missing: %q", clean)
	}
	// "Book us 3 rooms" -> "Book us 0 rooms"; digits zeroed.
	if !strings.Contains(clean, "Book us 0 rooms") || !strings.Contains(clean, "0 beds") {
		t.Errorf("digits not zeroed: %q", clean)
	}
	hasCard := false
	for _, f := range findings {
		if f.Kind == KindCreditCard {
			hasCard = true
		}
	}
	if !hasCard {
		t.Error("findings missing credit card")
	}
}

func TestRedactDeterministicAndSaltSensitive(t *testing.T) {
	text := "password: hunter2 and again password: hunter2"
	s1 := New("salt-A")
	clean1, _ := s1.Redact(text)
	clean1again, _ := s1.Redact(text)
	if clean1 != clean1again {
		t.Error("redaction not deterministic")
	}
	// Equal secrets produce equal tokens.
	var tokens []string
	parts := strings.Split(clean1, "*_|R|_*")
	for i := 1; i < len(parts); i += 2 { // odd segments are token interiors
		if strings.HasPrefix(parts[i], "password*") {
			tokens = append(tokens, parts[i])
		}
	}
	if len(tokens) != 2 {
		t.Fatalf("expected two password tokens, got %v in %q", tokens, clean1)
	}
	if tokens[0] != tokens[1] {
		t.Error("same secret hashed differently within one salt")
	}
	s2 := New("salt-B")
	clean2, _ := s2.Redact(text)
	if clean1 == clean2 {
		t.Error("different salts produced identical redactions")
	}
}

func TestRedactIdempotent(t *testing.T) {
	s := New("salt")
	text := "ssn 078-05-1120, visa 4111111111111111, call 412-268-5000 on 06/03/2016"
	once, _ := s.Redact(text)
	twice, _ := s.Redact(once)
	if once != twice {
		t.Errorf("redaction not idempotent:\n%q\n%q", once, twice)
	}
}

func TestRedactNoSensitiveContent(t *testing.T) {
	s := New("salt")
	text := "Let's meet for lunch tomorrow. The weather is nice."
	clean, findings := s.Redact(text)
	if clean != text {
		t.Errorf("benign text altered: %q", clean)
	}
	if len(findings) != 0 {
		t.Errorf("phantom findings: %v", findings)
	}
}

func TestZeroDigitsEverywhereOutsideTokens(t *testing.T) {
	s := New("salt")
	clean, _ := s.Redact("meeting room 314 at 5pm")
	if !strings.Contains(clean, "room 000 at 0pm") {
		t.Errorf("stray digits survive: %q", clean)
	}
}

func TestOverlappingFindings(t *testing.T) {
	// A username assignment whose value is an email: both detectors fire,
	// redaction must not mangle the text.
	s := New("salt")
	text := "username: alice@gmail.com done"
	clean, findings := s.Redact(text)
	km := map[Kind]bool{}
	for _, f := range findings {
		km[f.Kind] = true
	}
	if !km[KindUsername] || !km[KindEmail] {
		t.Errorf("kinds = %v", km)
	}
	if strings.Contains(clean, "alice@gmail.com") {
		t.Errorf("email survived: %q", clean)
	}
	if !strings.HasSuffix(clean, "done") {
		t.Errorf("tail mangled: %q", clean)
	}
}

func TestLuhnComplete(t *testing.T) {
	for _, partial := range []string{"411111111111111", "51000000000000", "37138512930100"} {
		full := LuhnComplete(partial)
		if len(full) != len(partial)+1 || !luhnValid(full) {
			t.Errorf("LuhnComplete(%q) = %q invalid", partial, full)
		}
	}
}

func TestCardBrandClassification(t *testing.T) {
	tests := []struct {
		digits, brand string
	}{
		{"371385129301004", "americanexpress"},
		{"4111111111111111", "visa"},
		{"5500005555555559", "mastercard"},
		{"6011000990139424", "discover"},
		{"3530111333300000", "jcb"},
		{"30569309025904", "dinersclub"},
		{"9999999999999995", "card"},
	}
	for _, tc := range tests {
		if got := CardBrand(tc.digits); got != tc.brand {
			t.Errorf("CardBrand(%s) = %q, want %q", tc.digits, got, tc.brand)
		}
	}
}

func TestEvaluatePerfectDetector(t *testing.T) {
	docs := []LabeledDoc{
		{Text: "ssn 078-05-1120", Truth: map[Kind]bool{KindSSN: true}},
		{Text: "nothing here", Truth: map[Kind]bool{}},
		{Text: "card 4111111111111111", Truth: map[Kind]bool{KindCreditCard: true}},
	}
	scores := Evaluate(docs)
	if s := scores[KindSSN]; s.Precision != 1 || s.Sensitivity != 1 {
		t.Errorf("SSN score = %+v", s)
	}
	if s := scores[KindCreditCard]; s.Precision != 1 || s.Sensitivity != 1 {
		t.Errorf("CC score = %+v", s)
	}
}

func TestEvaluateImperfectDetector(t *testing.T) {
	docs := []LabeledDoc{
		// FN: a password the regex cannot see (no keyword).
		{Text: "it is hunter2, don't tell", Truth: map[Kind]bool{KindPassword: true}},
		// TP
		{Text: "password: hunter2", Truth: map[Kind]bool{KindPassword: true}},
		// FP: truth says no password (sarcastic mention).
		{Text: "password: forgotten", Truth: map[Kind]bool{}},
	}
	s := Evaluate(docs)[KindPassword]
	if s.TP != 1 || s.FP != 1 || s.FN != 1 {
		t.Errorf("score = %+v", s)
	}
	if s.Precision != 0.5 || s.Sensitivity != 0.5 {
		t.Errorf("precision/sensitivity = %v/%v", s.Precision, s.Sensitivity)
	}
}

func TestEvaluateSampled(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var docs []LabeledDoc
	for i := 0; i < 200; i++ {
		if i%10 == 0 {
			docs = append(docs, LabeledDoc{Text: "ssn 078-05-1120", Truth: map[Kind]bool{KindSSN: true}})
		} else {
			docs = append(docs, LabeledDoc{Text: "plain body", Truth: map[Kind]bool{}})
		}
	}
	scores := EvaluateSampled(docs, 20, rng)
	if s := scores[KindSSN]; s.Sensitivity != 1 || s.Precision != 1 {
		t.Errorf("sampled SSN score = %+v", s)
	}
}

func TestFormatTable(t *testing.T) {
	out := FormatTable(Evaluate([]LabeledDoc{{Text: "x", Truth: map[Kind]bool{}}}))
	if !strings.Contains(out, "creditcard") || !strings.Contains(out, "Prec") {
		t.Errorf("table = %q", out)
	}
}

// Property: Redact never leaves a detectable credit card or SSN behind,
// for random plantings in random text.
func TestRedactRemovesPlantedSecretsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	words := []string{"meeting", "report", "attached", "thanks", "deal", "gas", "london", "trade"}
	s := New("prop-salt")
	for trial := 0; trial < 200; trial++ {
		var sb strings.Builder
		for i := 0; i < 5+rng.Intn(20); i++ {
			sb.WriteString(words[rng.Intn(len(words))])
			sb.WriteByte(' ')
		}
		num := "4"
		for i := 0; i < 14; i++ {
			num += string(byte('0' + rng.Intn(10)))
		}
		card := LuhnComplete(num)
		sb.WriteString("card " + card)
		clean, _ := s.Redact(sb.String())
		if strings.Contains(clean, card) {
			t.Fatalf("card %s survived: %q", card, clean)
		}
		for _, f := range Scan(clean) {
			if f.Kind == KindCreditCard {
				t.Fatalf("redacted text still scans as card: %q", clean)
			}
		}
	}
}

// Property: redaction is idempotent on random ASCII text.
func TestRedactIdempotentProperty(t *testing.T) {
	s := New("prop")
	f := func(raw string) bool {
		text := strings.Map(func(r rune) rune {
			if r < 32 || r > 126 {
				return ' '
			}
			return r
		}, raw)
		once, _ := s.Redact(text)
		twice, _ := s.Redact(once)
		return once == twice
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
