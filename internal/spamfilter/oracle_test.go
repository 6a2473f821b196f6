package spamfilter

import (
	"hash/fnv"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/mailmsg"
)

// This file keeps the funnel's one plain oracle: the single-function
// ClassifyOne that Prepare/Decide split, with every regex question
// answered by the stdlib regexps of the funnel's patterns, Layer 3
// keyed by the raw sender and bag-signature strings and a Layer 5 that
// counts the raw key strings. The differential tests in split_test.go
// hold the production funnel to it.

// oracleRE is every funnel pattern compiled with the stdlib, indexed by
// its ruleEngine pattern id.
var oracleRE = [...]*regexp.Regexp{
	patSpamPhrase:     regexp.MustCompile(spamPhrasePat),
	patMoney:          regexp.MustCompile(moneyPat),
	patURL:            regexp.MustCompile(urlPat),
	patBadTLD:         regexp.MustCompile(badTLDPat),
	patReflectionBody: regexp.MustCompile(reflectionBodyPat),
	patBounceSender:   regexp.MustCompile(bounceSenderPat),
	patSystemUser:     regexp.MustCompile(systemUserPat),
}

// oracleFacts answers every regex question the funnel asks of e with
// oracleRE, each regexp run over the whole string it is asked about.
func oracleFacts(e *Email) emailFacts {
	m := e.Msg
	text, subject, html := m.Text(), m.Subject(), m.HTMLBody
	matchAny := func(pat int, texts ...string) bool {
		for _, t := range texts {
			if oracleRE[pat].MatchString(t) {
				return true
			}
		}
		return false
	}
	f := emailFacts{body: bodyShape(m.Body, html, text)}
	f.body.phrases = len(oracleRE[patSpamPhrase].FindAllString(text+" "+subject, 3))
	f.body.money = matchAny(patMoney, text)
	f.body.manyLinks = len(oracleRE[patURL].FindAllString(text+" "+html, 3)) >= 2
	f.body.badTLDText = matchAny(patBadTLD, text)
	f.body.badTLDHTML = matchAny(patBadTLD, html)
	f.body.reflection = matchAny(patReflectionBody, text)
	f.head.badTLD = matchAny(patBadTLD, m.From(), m.Header("Reply-To"))
	f.head.bounce = matchAny(patBounceSender, m.Header("Sender"), m.From(), m.Header("Reply-To"))
	f.head.systemUser = matchAny(patSystemUser, mailmsg.Addr(e.SenderAddr), mailmsg.Addr(m.From()))
	return f
}

// oracleBagOfWords returns the message body's normalized unique-word
// set, sorted — Layer 3's content signature. ok is false when the bag
// has 20 or fewer words, which the paper considers too weak a signature.
func oracleBagOfWords(body string) (words []string, ok bool) {
	seen := map[string]bool{}
	for _, w := range strings.FieldsFunc(strings.ToLower(body), func(r rune) bool {
		return !(r >= 'a' && r <= 'z') && !(r >= '0' && r <= '9')
	}) {
		if len(w) >= 2 {
			seen[w] = true
		}
	}
	if len(seen) <= 20 {
		return nil, false
	}
	words = make([]string, 0, len(seen))
	for w := range seen {
		words = append(words, w)
	}
	sort.Strings(words)
	return words, true
}

// BagSignature compresses a bag of words to a comparable key.
func BagSignature(words []string) string { return strings.Join(words, "\x00") }

// oracleContentKey normalizes a body for frequency comparison.
func oracleContentKey(body string) string {
	if bag, ok := oracleBagOfWords(body); ok {
		return BagSignature(bag)
	}
	return strings.Join(strings.Fields(strings.ToLower(body)), " ")
}

// Oracle wraps a Classifier for its configuration and its pure layers,
// and shadows its Layer 3 state with string-keyed sets. It is exported
// to the package's external tests, which need spamgen.
type Oracle struct {
	*Classifier
	spamSenders map[string]bool
	spamBags    map[string]bool
}

// FunnelFixture exports funnelFixture to the external tests.
var FunnelFixture = funnelFixture

// NewOracle returns an oracle funnel with empty Layer 3 state.
func NewOracle(cfg Config) *Oracle {
	return &Oracle{
		Classifier:  NewClassifier(cfg),
		spamSenders: map[string]bool{},
		spamBags:    map[string]bool{},
	}
}

// markSpam feeds Layer 3's collaborative state.
func (c *Oracle) markSpam(e *Email) {
	if s := mailmsg.Addr(e.SenderAddr); s != "" {
		c.spamSenders[s] = true
	}
	if bag, ok := oracleBagOfWords(e.Msg.Text()); ok {
		c.spamBags[BagSignature(bag)] = true
	}
}

// layer3 consults the collaborative state.
func (c *Oracle) layer3(e *Email) bool {
	if c.spamSenders[mailmsg.Addr(e.SenderAddr)] {
		return true
	}
	if bag, ok := oracleBagOfWords(e.Msg.Text()); ok && c.spamBags[BagSignature(bag)] {
		return true
	}
	return false
}

// ClassifyOne runs layers 1–4 on a single email, updating collaborative
// state. Survivors are provisionally receiver or SMTP typos; Layer 5 may
// still reclassify them in Classify.
func (c *Oracle) ClassifyOne(e *Email) Result {
	f := oracleFacts(e)
	if c.layer1(e) {
		c.markSpam(e)
		return Result{Email: e, Verdict: VerdictSpamHeader, Layer: 1}
	}
	if HasForbiddenArchive(e.Msg) {
		c.markSpam(e)
		return Result{Email: e, Verdict: VerdictSpamArchive, Layer: 2}
	}
	if score, hits := c.scorer.scoreWith(e.Msg, f); score >= c.scorer.Threshold {
		c.markSpam(e)
		return Result{Email: e, Verdict: VerdictSpamScore, Layer: 2, Rules: hits}
	}
	if c.layer3(e) {
		c.markSpam(e)
		return Result{Email: e, Verdict: VerdictSpamCollab, Layer: 3}
	}
	if c.layer4(e, f) {
		return Result{Email: e, Verdict: VerdictReflection, Layer: 4}
	}
	if e.SMTPTypoDomain && !c.registeredSuffix(mailmsg.AddrDomain(e.RcptAddr)) {
		return Result{Email: e, Verdict: VerdictSMTPTypo}
	}
	return Result{Email: e, Verdict: VerdictReceiverTypo}
}

// Classify is the oracle's batch funnel: ClassifyOne in arrival order,
// then Layer 5 over the raw key strings of the layer 1–4 survivors.
func (c *Oracle) Classify(emails []*Email) []Result {
	ordered := append([]*Email(nil), emails...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Received.Before(ordered[j].Received) })
	results := make([]Result, len(ordered))
	for i, e := range ordered {
		results[i] = c.ClassifyOne(e)
	}
	keys := func(e *Email) [3]string {
		return [3]string{mailmsg.Addr(e.RcptAddr), mailmsg.Addr(e.SenderAddr), oracleContentKey(e.Msg.Text())}
	}
	var counts [3]map[string]int
	for k := range counts {
		counts[k] = map[string]int{}
	}
	for _, r := range results {
		if r.Verdict.IsTrueTypo() {
			for k, key := range keys(r.Email) {
				counts[k][key]++
			}
		}
	}
	thresholds := [3]int{c.cfg.RcptThreshold, c.cfg.SenderThreshold, c.cfg.ContentThreshold}
	for i := range results {
		r := &results[i]
		if !r.Verdict.IsTrueTypo() {
			continue
		}
		for k, key := range keys(r.Email) {
			if counts[k][key] > thresholds[k] {
				r.FreqOf, r.Verdict, r.Layer = r.Verdict, VerdictFrequency, 5
				break
			}
		}
	}
	return results
}

// TestContentKeyMatchesOracle requires BagOfWords to return the
// oracle's bag, and the in-place FNV-1a content key to equal hash/fnv
// over the oracle's joined key string, for bodies on both sides of the
// bag-of-words cutoff — including runes that lowercase to ASCII letters
// (İ, the Kelvin sign) and invalid UTF-8.
func TestContentKeyMatchesOracle(t *testing.T) {
	long := strings.Repeat("alpha Beta gamma ", 3) + "a1 b2 c3 d4 e5 f6 g7 h8 i9 j0 k1 l2 m3 n4 o5 p6 q7 r8 s9 t0 u1 v2"
	bodies := []string{"", "  Short  body\tTEXT here ", FunnelFixture()[2].Msg.Text(), long,
		long + " İSTANBUL \u212Aelvin caf\u00e9s na\xffve x\xc3", strings.Repeat("same words again ", 30)}
	for _, ds := range corpus.AllDatasets() {
		for j, lm := range corpus.Generate(ds) {
			if j >= 20 {
				break
			}
			bodies = append(bodies, lm.Msg.Text())
		}
	}
	for _, body := range bodies {
		bag, ok := BagOfWords(body)
		wantBag, wantOK := oracleBagOfWords(body)
		if ok != wantOK || !reflect.DeepEqual(bag, wantBag) {
			t.Fatalf("BagOfWords(%.40q) = %v %v, oracle %v %v", body, bag, ok, wantBag, wantOK)
		}
		h := fnv.New64a()
		h.Write([]byte(oracleContentKey(body)))
		if got := contentKey(body, bag, ok); got != FreqKey(h.Sum64()) {
			t.Fatalf("contentKey(%.40q) = %x, want %x", body, got, h.Sum64())
		}
	}
}
