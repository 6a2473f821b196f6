package match_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/match"
)

// zooPatterns is every production pattern the engine will carry (the
// sanitizer's detectors and both spamfilter rule files) plus
// adversarial shapes aimed at the prefilter's edges: prefix-overlap
// literals, factors at shifted offsets, backwalk classes, fold traps,
// and fallback-only patterns.
var zooPatterns = []string{
	// sanitize detectors
	`[A-Za-z0-9._%+\-]+@[A-Za-z0-9.\-]+\.[A-Za-z]{2,}`,
	`\b(?:\d[ \-]?){13,19}\b`,
	`\b(\d{3})-(\d{2})-(\d{4})\b`,
	`\b(\d{2})-(\d{7})\b`,
	`(?i)\b(?:password|passwd|pwd|passphrase)\s*(?:is|:|=)?\s*(\S{3,})`,
	`\b[A-HJ-NPR-Za-hj-npr-z0-9]{17}\b`,
	`(?i)\b(?:username|user name|login|user id|userid)\s*(?:is|:|=)?\s*(\S{2,})`,
	`(?i)(?:\bzip(?:\s*code)?\s*(?:is|:|=)?\s*|,\s*[A-Z]{2}\s+)(\d{5}(?:-\d{4})?)\b`,
	`(?i)\b(?:id|identification|member|account|case|employee|record|mrn|policy)\s*(?:number|num|no\.?|#)?\s*(?:is|:|=)\s*([A-Za-z0-9\-]{4,})`,
	`(?:\+?1[\-. ]?)?(?:\(\d{3}\)\s?|\d{3}[\-. ])\d{3}[\-. ]\d{4}\b`,
	`(?i)\b(?:\d{1,2}[/\-]\d{1,2}[/\-]\d{2,4}|\d{4}-\d{2}-\d{2}|(?:jan|feb|mar|apr|may|jun|jul|aug|sep|oct|nov|dec)[a-z]*\.?\s+\d{1,2}(?:st|nd|rd|th)?,?\s+\d{4})\b`,
	// spamfilter scorer
	`(?i)\b(click here|limited time|act now|no obligation|100% free|risk free|money back|order now|this is not spam|dear friend|claim your prize|winner|lowest prices|online pharmacy|work from home|extra income|no experience|viagra|cheap meds|hot singles|no prescription|make \$\d+)\b`,
	`\$\d+(?:[.,]\d{2})?`,
	`https?://[^\s]+`,
	`(?i)(?:@|https?://)[^\s@/]*\.(?:ru|cn|biz|info)\b`,
	// spamfilter funnel
	`(?i)\b(unsubscribe|remove yourself|manage your (?:email )?preferences|update your subscription|you are receiving this|opt[ -]?out)\b`,
	`(?i)\b(bounce|unsubscribe|no-?reply|donotreply|mailer-daemon|notifications?)\b`,
	`(?i)^(postmaster|root|admin|administrator|mailer-daemon|daemon|nobody|www-data)@`,
	// adversarial zoo
	`abab(ab)*c`,                  // prefix-overlap literal
	`(?i)ss+n`,                    // fold-trap literal with plus
	`(?i)kelvin`,                  // U+212A trap at offset 0
	`x[ab]{0,8}yz`,                // factor at a spread offset window
	`[0-9]+-[0-9]+`,               // backwalk-shaped with digit class
	`(a|bb)cc\b`,                  // branch factors with differing offsets
	`\bword\b`,                    // pure boundary behaviour
	`z*`,                          // empty-match capable: fallback path
	`(?s).end`,                    // no factor, any-char head: fallback/firstbyte edge
	`(?i)(alpha|beta)\s=\d`,       // mixed literal/class tail
	`(0|1)*0(0|1){12}2|[01]{40}3`, // window × counter DFA states: outgrows maxDFAStates
}

// adversarialInputs stresses exactly the edges the prefilter bends
// around: Unicode fold traps, NUL and high bytes, invalid UTF-8,
// matches at both text boundaries, overlapping literal occurrences,
// and near-miss boundary contexts.
var adversarialInputs = withStateBlowup([]string{
	"",
	"password is hunter2, username: jdoe",
	"pa\u017Fsword is hunter2",          // U+017F inside keyword
	"u\u017Fername is jdoe",             // trap at offset 1
	"\u212Aelvin and kelvin and KELVIN", // U+212A trap
	"\u017F\u017F\u017Fn",               // folded run hitting ss+n
	"card 4111 1111 1111 1111 and ssn 078-05-1120",
	"ssn 078-05-1120.",
	"078-05-1120",            // match at begin and end of text
	"x078-05-1120y",          // boundary near-miss
	"a@b.co",                 // minimal email at boundaries
	"joe@ex.com jane@ex.org", // multiple matches, backwalk
	"@@@@a@b.cc@d.ee",        // pathological backwalk anchors
	"0@0.AA0@0.AA",           // second backwalk run starts where the first match ends
	"call 412-268-3000 now",  // phone
	"(412) 268 3000",         // phone alt branch
	"dec 14, 2016 and 12/14/2016 and 2016-12-14",
	"d\u00e9c 14, 2016 total 1234",
	"abababababc",              // overlapping prefix literal
	"ababc abab ababababc",     // partial overlaps
	"xyz xayz xabababyz xabby", // spread-offset factor
	"a\x00b password\x00is\x00secret123",
	"\x80\xfe\xffpassword is \xc3\x28 bad utf8",
	"make $500 fast! click here http://spam.example.ru/x",
	"visit https://a.b.info\u212A now", // trap directly after TLD
	"unsubscribe at no-reply@host or NOREPLY",
	"postmaster@example.com",
	"not postmaster@example.com", // BOT pattern must not match mid-text
	"winner winner dear friend, 100% free viagra, act now",
	"id = 12345678 and account number is AB-9912",
	"zip code 15213-0001, PA 15213",
	"1HGCM82633A004352 vin maybe",
	"word sword words word",
	"acc bbcc abcc",
	"zzzzz",
	"ends in .end",
	"alpha =5 BETA\t=9",
})

// blowupShort are near-misses and matches of the zoo's last pattern,
// `(0|1)*0(0|1){12}2|[01]{40}3`.
var blowupShort = []string{
	"001111111111112",
	"011111111111112",
	"x100000000000002 012 02",
	"000000000000000002-0000000000002",
	strings.Repeat("01", 20) + "3 " + strings.Repeat("10", 19) + "3",
	strings.Repeat("1", 45) + "3",
}

// withStateBlowup appends a text that pushes the last zoo pattern's DFA
// past maxDFAStates (4,096). A candidate starts at every 0/1 byte, and
// the DFA state k bytes into a run of them pairs which of the last 13
// bytes were '0' with k itself while k <= 40, so walks over
// blowupText's 300 pseudo-random 0/1 bytes would need ~9,000 states;
// the DFA disables itself partway through. With no '2' or '3', the
// text has no match. The short texts run once before it and once
// after it, so every engine check meets this pattern both with an
// exact DFA and with a disabled one. Binary digits keep the pattern's
// candidates rare in the corpus texts the fuzzer mutates.
func withStateBlowup(in []string) []string {
	out := append(in, blowupShort...)
	out = append(out, blowupText())
	return append(out, blowupShort...)
}

func blowupText() string {
	rng := rand.New(rand.NewSource(23))
	b := make([]byte, 300)
	for i := range b {
		b[i] = "01"[rng.Intn(2)]
	}
	return string(b)
}

func allFindAll(e *match.Engine, id int, text string) [][]int {
	var got [][]int
	s := e.Scan(text)
	s.FindAll(id, func(idx []int) bool {
		got = append(got, append([]int(nil), idx...))
		return true
	})
	s.Release()
	return got
}

// oracleFindAll is the reference semantics the engine promises:
// the stdlib's own FindAll loop over the unmodified pattern.
func oracleFindAll(re *regexp.Regexp, text string) [][]int {
	return re.FindAllStringSubmatchIndex(text, -1)
}

func checkPattern(t *testing.T, e *match.Engine, id int, text string) {
	t.Helper()
	re := e.Oracle(id)
	want := oracleFindAll(re, text)
	got := allFindAll(e, id, text)
	if len(want) == 0 && len(got) == 0 {
		// reflect.DeepEqual(nil, [][]int{}) is false; both empty is equal.
	} else if !reflect.DeepEqual(got, want) {
		t.Errorf("pattern %q (%s) on %q:\n engine %v\n oracle %v",
			re.String(), e.Mode(id), text, got, want)
	}
	s := e.Scan(text)
	defer s.Release()
	if gm, wm := s.Match(id), re.MatchString(text); gm != wm {
		t.Errorf("pattern %q Match on %q: engine %v oracle %v", re.String(), text, gm, wm)
	}
	for _, max := range []int{-1, 1, 2, 3} {
		if gc, wc := s.Count(id, max), len(re.FindAllString(text, max)); gc != wc {
			t.Errorf("pattern %q Count(%d) on %q: engine %d oracle %d", re.String(), max, text, gc, wc)
		}
	}
}

func zooEngine(t testing.TB) *match.Engine {
	e, err := match.Compile(zooPatterns)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestCompatAdversarial(t *testing.T) {
	e := zooEngine(t)
	for id := range zooPatterns {
		for _, text := range adversarialInputs {
			checkPattern(t, e, id, text)
		}
	}
}

// TestCompatCorpus replays every pattern against the oracle over real
// corpus text: the Table 2 Enron docs and a slice of every Table 3
// dataset's messages.
func TestCompatCorpus(t *testing.T) {
	e := zooEngine(t)
	var texts []string
	opts := corpus.DefaultEnronOptions()
	opts.Plain, opts.PerKind = 60, 6
	for _, d := range corpus.GenerateEnron(opts) {
		texts = append(texts, d.Text, d.Subject)
	}
	for _, ds := range corpus.AllDatasets() {
		msgs := corpus.Generate(ds)
		for i := 0; i < len(msgs) && i < 80; i++ {
			m := msgs[i].Msg
			texts = append(texts, m.Text(), m.Subject(), m.From())
		}
	}
	for id := range zooPatterns {
		for _, text := range texts {
			checkPattern(t, e, id, text)
		}
	}
}

// TestMatchDeterminism pins that repeated scans — same handle
// re-obtained, fresh handles, and a freshly compiled engine — produce
// identical match sequences in identical order.
func TestMatchDeterminism(t *testing.T) {
	e1 := zooEngine(t)
	e2 := zooEngine(t)
	for id := range zooPatterns {
		for _, text := range adversarialInputs {
			a := allFindAll(e1, id, text)
			b := allFindAll(e1, id, text)
			c := allFindAll(e2, id, text)
			if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(a, c) {
				t.Fatalf("pattern %d on %q: non-deterministic match order", id, text)
			}
		}
	}
}

// TestLeftmostSemantics pins the leftmost contract: the first yielded
// match equals the oracle's leftmost match, and successive matches are
// non-overlapping in increasing order.
func TestLeftmostSemantics(t *testing.T) {
	e := zooEngine(t)
	for id := range zooPatterns {
		re := e.Oracle(id)
		for _, text := range adversarialInputs {
			got := allFindAll(e, id, text)
			if first := re.FindStringSubmatchIndex(text); first != nil {
				if len(got) == 0 || !reflect.DeepEqual(got[0], first) {
					t.Fatalf("pattern %q on %q: first match %v, oracle leftmost %v",
						re.String(), text, got, first)
				}
			} else if len(got) != 0 {
				t.Fatalf("pattern %q on %q: engine found %v, oracle none", re.String(), text, got)
			}
			prevEnd := 0
			for _, m := range got {
				if m[0] < prevEnd {
					t.Fatalf("pattern %q on %q: overlapping/out-of-order matches %v", re.String(), text, got)
				}
				prevEnd = m[1]
			}
		}
	}
}

// TestZooModes pins which production patterns actually exercise each
// prefilter strategy, so a refactor can't silently demote the hot
// patterns to the fallback path.
func TestZooModes(t *testing.T) {
	e := zooEngine(t)
	wantPrefix := map[int]string{
		0:  "factors", // email: backwalk from '@'
		1:  "firstbyte",
		2:  "factors",
		4:  "factors",
		5:  "firstbyte",
		9:  "factors", // phone: '(' and separator-class factors at bounded offsets
		10: "factors",
		11: "factors",
		12: "factors",
		13: "factors",
		14: "factors",
		15: "factors",
		16: "factors",
		17: "bot",
	}
	for id, want := range wantPrefix {
		if got := e.Mode(id); got != want {
			t.Errorf("pattern %d (%s): mode %s, want %s", id, zooPatterns[id], got, want)
		}
	}
	if got := e.Mode(25); got != "fallback" { // z*: empty match capable
		t.Errorf("z* mode %s, want fallback", got)
	}
}

// TestDFAStateBudget pins that the blow-up text really exhausts the
// last zoo pattern's state budget, so the compat tests and
// FuzzMatchEquivalence compare the disabled path with the oracle too.
// Match runs first, from several goroutines on a fresh engine: the
// accept intern hands out on exhaustion is fake, and no Match, whether
// it caused the exhaustion or read the cached accept, may take it for a
// match.
func TestDFAStateBudget(t *testing.T) {
	e := zooEngine(t)
	id := len(zooPatterns) - 1
	for _, text := range blowupShort {
		checkPattern(t, e, id, text)
	}
	if e.DFADisabled(id) {
		t.Fatal("short inputs already exhausted the DFA state budget")
	}
	text := blowupText()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := e.Scan(text)
			defer s.Release()
			if s.Match(id) {
				t.Error("Match reports a match in a text without '2' or '3'")
			}
		}()
	}
	wg.Wait()
	if !e.DFADisabled(id) {
		t.Fatalf("pattern %q: DFA still enabled after the blow-up text", zooPatterns[id])
	}
	for _, text := range adversarialInputs {
		checkPattern(t, e, id, text)
	}
}

func ExampleEngine_modes() {
	e := match.MustCompile(
		`[A-Za-z0-9._%+\-]+@[A-Za-z0-9.\-]+\.[A-Za-z]{2,}`,
		`\b(?:\d[ \-]?){13,19}\b`,
	)
	fmt.Println(e.Mode(0), e.Mode(1))
	// Output: factors firstbyte
}
