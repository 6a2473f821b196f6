// Package spamfilter implements the study's five-layer email
// classification funnel (Section 4.3): erroneous-header detection,
// a SpamAssassin-style rule scorer, collaborative filtering across
// domains, reflection-typo detection, and frequency-based filtering.
// Each email marked spam at one layer is not considered further.
package spamfilter

import (
	"regexp"
	"slices"
	"sort"
	"strings"

	"repro/internal/mailmsg"
	"repro/internal/match"
)

// DefaultThreshold is the SpamAssassin default score threshold the paper
// ran with ("local mode with the default thresholds").
const DefaultThreshold = 5.0

// RuleInput is one message prepared for scoring: the derived texts the
// content rules scan, materialized once, plus lazily obtained engine
// scan handles shared by every rule that reads the same text.
type RuleInput struct {
	m    *mailmsg.Message
	text string // m.Text(), cached (HTML-only bodies strip per call)

	textSubj, textScan, textHTML *match.Scan
	phraseHits                   int // spam-phrase count in text+subject; -1 until computed
}

func newRuleInput(m *mailmsg.Message) RuleInput {
	return RuleInput{m: m, text: m.Text(), phraseHits: -1}
}

// Msg returns the message being scored.
func (in *RuleInput) Msg() *mailmsg.Message { return in.m }

// Text is the cached m.Text().
func (in *RuleInput) Text() string { return in.text }

// scanTextSubj scans Text+" "+Subject — the spam-phrase haystack, built
// once and shared by both PHRASES rules (a phrase may span the joint).
func (in *RuleInput) scanTextSubj() *match.Scan {
	if in.textSubj == nil {
		in.textSubj = ruleEngine.Scan(in.text + " " + in.m.Subject())
	}
	return in.textSubj
}

func (in *RuleInput) scanText() *match.Scan {
	if in.textScan == nil {
		in.textScan = ruleEngine.Scan(in.text)
	}
	return in.textScan
}

func (in *RuleInput) scanTextHTML() *match.Scan {
	if in.textHTML == nil {
		in.textHTML = ruleEngine.Scan(in.text + " " + in.m.HTMLBody)
	}
	return in.textHTML
}

// spamPhrases counts spam phrases in text+subject (capped at 3, all the
// rules need), computed once for both PHRASES rules.
func (in *RuleInput) spamPhrases() int {
	if in.phraseHits < 0 {
		in.phraseHits = in.scanTextSubj().Count(patSpamPhrase, 3)
	}
	return in.phraseHits
}

// release returns the scan handles to the engine pool.
func (in *RuleInput) release() {
	for _, s := range [...]*match.Scan{in.textSubj, in.textScan, in.textHTML} {
		if s != nil {
			s.Release()
		}
	}
	in.textSubj, in.textScan, in.textHTML = nil, nil, nil
}

// Rule is one scored heuristic of the Layer 2 scorer.
type Rule struct {
	Name  string
	Score float64
	Match func(in *RuleInput) bool
}

// Scorer is the rule-based Layer 2 engine (the SpamAssassin stand-in).
type Scorer struct {
	Threshold float64
	Rules     []Rule
}

// NewScorer returns a Scorer with the default rule set and threshold.
// Its content rules run on the shared multi-pattern engine.
func NewScorer() *Scorer {
	return &Scorer{Threshold: DefaultThreshold, Rules: defaultRules(false)}
}

// NewScorerOracle returns a Scorer whose content rules run the original
// per-rule stdlib regexps — the reference the engine-backed scorer is
// differentially tested against.
func NewScorerOracle() *Scorer {
	return &Scorer{Threshold: DefaultThreshold, Rules: defaultRules(true)}
}

// Score sums the scores of all matching rules and lists their names.
func (s *Scorer) Score(m *mailmsg.Message) (float64, []string) {
	in := newRuleInput(m)
	var total float64
	var hits []string
	for _, r := range s.Rules {
		if r.Match(&in) {
			total += r.Score
			hits = append(hits, r.Name)
		}
	}
	in.release()
	return total, hits
}

// IsSpam reports whether the message scores at or above the threshold.
// Unlike Score it does not materialize the rule-name list.
func (s *Scorer) IsSpam(m *mailmsg.Message) bool {
	in := newRuleInput(m)
	var total float64
	for _, r := range s.Rules {
		if r.Match(&in) {
			total += r.Score
		}
	}
	in.release()
	return total >= s.Threshold
}

// The content-rule patterns, shared verbatim by the stdlib oracle
// regexps and the multi-pattern engine.
const (
	spamPhrasePat     = `(?i)\b(click here|limited time|act now|no obligation|100% free|risk free|money back|order now|this is not spam|dear friend|claim your prize|winner|lowest prices|online pharmacy|work from home|extra income|no experience|viagra|cheap meds|hot singles|no prescription|make \$\d+)\b`
	moneyPat          = `\$\d+(?:[.,]\d{2})?`
	urlPat            = `https?://[^\s]+`
	badTLDPat         = `(?i)(?:@|https?://)[^\s@/]*\.(?:ru|cn|biz|info)\b`
	reflectionBodyPat = `(?i)\b(unsubscribe|remove yourself|manage your (?:email )?preferences|update your subscription|you are receiving this|opt[ -]?out)\b`
	bounceSenderPat   = `(?i)\b(bounce|unsubscribe|no-?reply|donotreply|mailer-daemon|notifications?)\b`
	systemUserPat     = `(?i)^(postmaster|root|admin|administrator|mailer-daemon|daemon|nobody|www-data)@`
)

// Engine pattern ids, in ruleEngine compile order.
const (
	patSpamPhrase = iota
	patMoney
	patURL
	patBadTLD
	patReflectionBody
	patBounceSender
	patSystemUser
)

// ruleEngine compiles every scorer and funnel pattern into one shared
// multi-pattern engine (internal/match), proven match-for-match
// equivalent to the oracle regexps below.
var ruleEngine = match.MustCompile(
	spamPhrasePat, moneyPat, urlPat, badTLDPat,
	reflectionBodyPat, bounceSenderPat, systemUserPat,
)

var (
	spamPhraseRe = regexp.MustCompile(spamPhrasePat)
	moneyRe      = regexp.MustCompile(moneyPat)
	urlRe        = regexp.MustCompile(urlPat)
	badTLDRe     = regexp.MustCompile(badTLDPat)
)

// matchOnce answers a one-off engine Match on a (usually short) string.
func matchOnce(pat int, text string) bool {
	s := ruleEngine.Scan(text)
	ok := s.Match(pat)
	s.Release()
	return ok
}

func defaultRules(oracle bool) []Rule {
	content := engineContentRules()
	if oracle {
		content = oracleContentRules()
	}
	s := structuralRules()
	rules := make([]Rule, 0, len(s)+len(content))
	rules = append(rules, s[:2]...)   // SUBJ_*
	rules = append(rules, content...) // regex-backed content rules
	return append(rules, s[2:]...)    // header/body-shape rules
}

// engineContentRules are the regex-backed rules on the engine path.
func engineContentRules() []Rule {
	return []Rule{
		{
			Name: "BODY_SPAM_PHRASES_2", Score: 1.6,
			Match: func(in *RuleInput) bool { return in.spamPhrases() >= 2 },
		},
		{
			Name: "BODY_SPAM_PHRASES_3", Score: 1.6,
			Match: func(in *RuleInput) bool { return in.spamPhrases() >= 3 },
		},
		{
			Name: "BODY_MONEY", Score: 0.7,
			Match: func(in *RuleInput) bool { return in.scanText().Match(patMoney) },
		},
		{
			Name: "BODY_MANY_LINKS", Score: 1.0,
			Match: func(in *RuleInput) bool { return in.scanTextHTML().Count(patURL, 3) >= 2 },
		},
		{
			Name: "SUSPICIOUS_TLD", Score: 1.4,
			Match: func(in *RuleInput) bool {
				return matchOnce(patBadTLD, in.m.From()) || in.scanText().Match(patBadTLD) ||
					matchOnce(patBadTLD, in.m.HTMLBody) || matchOnce(patBadTLD, in.m.Header("Reply-To"))
			},
		},
	}
}

// oracleContentRules are the same rules over the stdlib regexps.
func oracleContentRules() []Rule {
	return []Rule{
		{
			Name: "BODY_SPAM_PHRASES_2", Score: 1.6,
			Match: func(in *RuleInput) bool {
				return len(spamPhraseRe.FindAllString(in.text+" "+in.m.Subject(), 3)) >= 2
			},
		},
		{
			Name: "BODY_SPAM_PHRASES_3", Score: 1.6,
			Match: func(in *RuleInput) bool {
				return len(spamPhraseRe.FindAllString(in.text+" "+in.m.Subject(), 3)) >= 3
			},
		},
		{
			Name: "BODY_MONEY", Score: 0.7,
			Match: func(in *RuleInput) bool { return moneyRe.MatchString(in.text) },
		},
		{
			Name: "BODY_MANY_LINKS", Score: 1.0,
			Match: func(in *RuleInput) bool {
				return len(urlRe.FindAllString(in.text+" "+in.m.HTMLBody, 3)) >= 2
			},
		},
		{
			Name: "SUSPICIOUS_TLD", Score: 1.4,
			Match: func(in *RuleInput) bool {
				return badTLDRe.MatchString(in.m.From()) || badTLDRe.MatchString(in.text) ||
					badTLDRe.MatchString(in.m.HTMLBody) || badTLDRe.MatchString(in.m.Header("Reply-To"))
			},
		},
	}
}

// structuralRules are the non-regex rules, identical on both paths.
// Split as [0:2] = the subject rules that open the rule list and [2:] =
// the header/body-shape rules that close it; defaultRules reassembles
// the historical order with the content rules in between.
func structuralRules() []Rule {
	return []Rule{
		{
			Name: "SUBJ_ALL_CAPS", Score: 1.2,
			Match: func(in *RuleInput) bool {
				s := in.m.Subject()
				if len(s) < 8 {
					return false
				}
				letters, caps := 0, 0
				for _, r := range s {
					if r >= 'a' && r <= 'z' {
						letters++
					}
					if r >= 'A' && r <= 'Z' {
						letters++
						caps++
					}
				}
				return letters > 0 && float64(caps)/float64(letters) > 0.6
			},
		},
		{
			Name: "SUBJ_EXCLAIM", Score: 0.8,
			Match: func(in *RuleInput) bool {
				return strings.Contains(in.m.Subject(), "!!") || strings.Count(in.m.Subject(), "!") >= 2
			},
		},
		{
			Name: "REPLYTO_DIFFERS", Score: 0.9,
			Match: func(in *RuleInput) bool {
				rt := mailmsg.Addr(in.m.Header("Reply-To"))
				return rt != "" && rt != mailmsg.Addr(in.m.From())
			},
		},
		{
			Name: "MISSING_MSGID", Score: 0.5,
			Match: func(in *RuleInput) bool { return !in.m.HasHeader("Message-Id") },
		},
		{
			Name: "HTML_ONLY", Score: 0.6,
			Match: func(in *RuleInput) bool {
				return strings.TrimSpace(in.m.Body) == "" && in.m.HTMLBody != ""
			},
		},
		{
			Name: "SHOUTY_BODY", Score: 0.8,
			Match: func(in *RuleInput) bool {
				letters, caps := 0, 0
				for _, r := range in.text {
					if r >= 'a' && r <= 'z' {
						letters++
					}
					if r >= 'A' && r <= 'Z' {
						letters++
						caps++
					}
				}
				return letters > 40 && float64(caps)/float64(letters) > 0.5
			},
		},
	}
}

// HasForbiddenArchive reports whether the message carries a ZIP or RAR
// attachment — which the paper treats as spam unconditionally: "We
// immediately remove all emails with ZIP or RAR attachments [...] every
// single one of them we manually inspected was spam."
func HasForbiddenArchive(m *mailmsg.Message) bool {
	for _, a := range m.Attachments {
		switch a.Ext() {
		case "zip", "rar":
			return true
		}
	}
	return false
}

// BagOfWords returns the message body's normalized unique-word set,
// sorted — Layer 3's content signature. ok is false when the bag has 20
// or fewer words, which the paper considers too weak a signature.
func BagOfWords(body string) (words []string, ok bool) {
	words = strings.FieldsFunc(strings.ToLower(body), func(r rune) bool {
		return !(r >= 'a' && r <= 'z') && !(r >= '0' && r <= '9')
	})
	words = slices.DeleteFunc(words, func(w string) bool { return len(w) < 2 })
	sort.Strings(words)
	if words = slices.Compact(words); len(words) <= 20 {
		return nil, false
	}
	return words, true
}
