// Package spamfilter implements the study's five-layer email
// classification funnel (Section 4.3): erroneous-header detection,
// a SpamAssassin-style rule scorer, collaborative filtering across
// domains, reflection-typo detection, and frequency-based filtering.
// Each email marked spam at one layer is not considered further.
package spamfilter

import (
	"slices"
	"sort"
	"strings"

	"repro/internal/mailmsg"
	"repro/internal/match"
)

// DefaultThreshold is the SpamAssassin default score threshold the paper
// ran with ("local mode with the default thresholds").
const DefaultThreshold = 5.0

// RuleInput is one message prepared for scoring: the message and every
// regex answer the rules read, worked out on the shared engine or
// handed in by the funnel's content memo.
type RuleInput struct {
	m *mailmsg.Message
	f emailFacts
}

// Msg returns the message being scored.
func (in *RuleInput) Msg() *mailmsg.Message { return in.m }

// emailFacts is every regex answer the funnel needs about one email:
// its content's, which the funnel memoizes per distinct content, and
// its headers', which differ from email to email.
type emailFacts struct {
	body bodyFacts
	head headerFacts
}

// bodyFacts is what the content rules know about a message: a pure
// function of its Subject, Body and HTMLBody (text is m.Text()), so the
// funnel computes it once per distinct content. reflection is no
// rule's: it is Layer 4's body test, read off the same text scan.
type bodyFacts struct {
	phrases    int  // spam phrases in text+" "+subject, capped at 3
	money      bool // a dollar amount in the text
	manyLinks  bool // two or more URLs in text+" "+html
	badTLDText bool // a bad-TLD address or URL in the text
	badTLDHTML bool // ... or in the HTML body
	htmlOnly   bool // blank text body beside an HTML body
	shouty     bool // mostly upper-case letters in a long text
	reflection bool // the text reads like automated mail
}

// headerFacts is what the regexes say about one email's address
// headers and envelope sender.
type headerFacts struct {
	badTLD     bool // a bad-TLD address in From or Reply-To
	bounce     bool // Sender, From or Reply-To reads like a bounce or list address
	systemUser bool // the envelope sender or From is a system account
}

// messageFacts answers every regex question of m on the shared engine,
// as for an email without an envelope sender.
func messageFacts(m *mailmsg.Message) emailFacts {
	return emailFacts{
		body: bodyFactsOf(m.Subject(), m.Body, m.HTMLBody, m.Text()),
		head: headerFactsOf(m, ""),
	}
}

// bodyFactsOf computes the content rules' evidence on the shared engine.
func bodyFactsOf(subject, body, html, text string) bodyFacts {
	f := bodyShape(body, html, text)
	s := ruleEngine.Scan(text + " " + subject)
	f.phrases = s.Count(patSpamPhrase, 3)
	s.Release()
	s = ruleEngine.Scan(text)
	f.money, f.badTLDText = s.Match(patMoney), s.Match(patBadTLD)
	f.reflection = s.Match(patReflectionBody)
	s.Release()
	s = ruleEngine.Scan(text + " " + html)
	f.manyLinks = s.Count(patURL, 3) >= 2
	s.Release()
	f.badTLDHTML = matchOn(patBadTLD, html)
	return f
}

// bodyShape is the content evidence no regex decides: an HTML-only
// message and a shouting text.
func bodyShape(body, html, text string) bodyFacts {
	letters, caps := 0, 0
	for _, r := range text {
		if r >= 'a' && r <= 'z' {
			letters++
		}
		if r >= 'A' && r <= 'Z' {
			letters++
			caps++
		}
	}
	return bodyFacts{
		htmlOnly: strings.TrimSpace(body) == "" && html != "",
		shouty:   letters > 40 && float64(caps)/float64(letters) > 0.5,
	}
}

// headerFactsOf computes the header evidence on the shared engine: one
// scan per address header answers both questions asked of it. sender
// is the envelope sender's bare address (mailmsg.Addr).
func headerFactsOf(m *mailmsg.Message, sender string) headerFacts {
	var h headerFacts
	for _, name := range [...]string{"From", "Reply-To", "Sender"} {
		v := m.Header(name)
		if v == "" {
			continue // no funnel pattern matches the empty string
		}
		s := ruleEngine.Scan(v)
		h.badTLD = h.badTLD || name != "Sender" && s.Match(patBadTLD)
		h.bounce = h.bounce || s.Match(patBounceSender)
		s.Release()
	}
	h.systemUser = matchOn(patSystemUser, sender) || matchOn(patSystemUser, mailmsg.Addr(m.From()))
	return h
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
	return &Scorer{Threshold: DefaultThreshold, Rules: defaultRules()}
}

// Score sums the scores of all matching rules and lists their names.
func (s *Scorer) Score(m *mailmsg.Message) (float64, []string) {
	return s.scoreWith(m, messageFacts(m))
}

// scoreWith is Score on regex evidence already worked out.
func (s *Scorer) scoreWith(m *mailmsg.Message, f emailFacts) (float64, []string) {
	return s.score(&RuleInput{m: m, f: f})
}

// score runs every rule on in, in order. The hit list is gathered on the
// stack and copied out at its exact length; it is nil without hits.
func (s *Scorer) score(in *RuleInput) (float64, []string) {
	var buf [16]string
	hits := buf[:0]
	var total float64
	for _, r := range s.Rules {
		if r.Match(in) {
			total += r.Score
			hits = append(hits, r.Name)
		}
	}
	if len(hits) == 0 {
		return total, nil
	}
	return total, slices.Clone(hits)
}

// IsSpam reports whether the message scores at or above the threshold.
// Unlike Score it does not materialize the rule-name list.
func (s *Scorer) IsSpam(m *mailmsg.Message) bool {
	in := RuleInput{m: m, f: messageFacts(m)}
	var total float64
	for _, r := range s.Rules {
		if r.Match(&in) {
			total += r.Score
		}
	}
	return total >= s.Threshold
}

// The scorer and funnel patterns. The test oracle compiles them with
// the stdlib, verbatim.
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
// equivalent to the stdlib regexps of the same patterns.
var ruleEngine = match.MustCompile(
	spamPhrasePat, moneyPat, urlPat, badTLDPat,
	reflectionBodyPat, bounceSenderPat, systemUserPat,
)

// matchOn answers a one-off Match of pattern pat on a (usually short)
// string on the shared engine.
func matchOn(pat int, text string) bool {
	if text == "" {
		return false // no funnel pattern matches the empty string
	}
	s := ruleEngine.Scan(text)
	ok := s.Match(pat)
	s.Release()
	return ok
}

// defaultRules is the scorer's rule list, in its historical order:
// subject rules, content rules, header and body-shape rules. Every
// regex question is read from the input's facts; the rest read the
// message itself.
func defaultRules() []Rule {
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
			Name: "BODY_SPAM_PHRASES_2", Score: 1.6,
			Match: func(in *RuleInput) bool { return in.f.body.phrases >= 2 },
		},
		{
			Name: "BODY_SPAM_PHRASES_3", Score: 1.6,
			Match: func(in *RuleInput) bool { return in.f.body.phrases >= 3 },
		},
		{
			Name: "BODY_MONEY", Score: 0.7,
			Match: func(in *RuleInput) bool { return in.f.body.money },
		},
		{
			Name: "BODY_MANY_LINKS", Score: 1.0,
			Match: func(in *RuleInput) bool { return in.f.body.manyLinks },
		},
		{
			Name: "SUSPICIOUS_TLD", Score: 1.4,
			Match: func(in *RuleInput) bool {
				return in.f.head.badTLD || in.f.body.badTLDText || in.f.body.badTLDHTML
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
			Match: func(in *RuleInput) bool { return in.f.body.htmlOnly },
		},
		{
			Name: "SHOUTY_BODY", Score: 0.8,
			Match: func(in *RuleInput) bool { return in.f.body.shouty },
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
