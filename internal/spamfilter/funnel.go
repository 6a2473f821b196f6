package spamfilter

import (
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/mailmsg"
	"repro/internal/par"
)

// Email is one collected message with its envelope metadata. ServerDomain
// is the registered typo domain whose VPS accepted the message — known
// from the destination IP, per the paper's one-to-one IP/domain mapping.
type Email struct {
	Msg *mailmsg.Message

	ServerDomain   string // our typo domain that received it
	RcptAddr       string // envelope recipient
	SenderAddr     string // envelope sender
	SMTPTypoDomain bool   // domain was registered to catch SMTP typos
	Received       time.Time
}

// Verdict is the funnel's final classification of an email.
type Verdict int

// Verdicts, in funnel order.
const (
	VerdictSpamHeader   Verdict = iota // Layer 1: erroneous header fields
	VerdictSpamArchive                 // Layer 2: ZIP/RAR attachment
	VerdictSpamScore                   // Layer 2: scorer over threshold
	VerdictSpamCollab                  // Layer 3: collaborative filtering
	VerdictReflection                  // Layer 4: reflection typo (automated)
	VerdictFrequency                   // Layer 5: frequency-filtered
	VerdictReceiverTypo                // survived: true receiver typo
	VerdictSMTPTypo                    // survived: true SMTP typo
)

func (v Verdict) String() string {
	switch v {
	case VerdictSpamHeader:
		return "spam:header"
	case VerdictSpamArchive:
		return "spam:archive"
	case VerdictSpamScore:
		return "spam:score"
	case VerdictSpamCollab:
		return "spam:collaborative"
	case VerdictReflection:
		return "reflection-typo"
	case VerdictFrequency:
		return "frequency-filtered"
	case VerdictReceiverTypo:
		return "receiver-typo"
	case VerdictSMTPTypo:
		return "smtp-typo"
	default:
		return "unknown"
	}
}

// IsSpamVerdict reports whether the verdict is one of the spam layers.
func (v Verdict) IsSpamVerdict() bool {
	return v == VerdictSpamHeader || v == VerdictSpamArchive ||
		v == VerdictSpamScore || v == VerdictSpamCollab
}

// IsTrueTypo reports whether the verdict survived every filter.
func (v Verdict) IsTrueTypo() bool {
	return v == VerdictReceiverTypo || v == VerdictSMTPTypo
}

// Result pairs an email with its verdict.
type Result struct {
	Email   *Email
	Verdict Verdict
	Layer   int      // 1..5, or 0 for survivors
	Rules   []string // scorer rule hits, when Layer == 2
	// FreqOf records, for VerdictFrequency results, what the verdict was
	// before Layer 5 — the paper needs this to bracket SMTP typo counts
	// (415 unfiltered vs 5,970 including the frequency-filtered ones).
	FreqOf Verdict
}

// Config parameterizes the funnel.
type Config struct {
	// OurDomains is the set of registered typo domains.
	OurDomains map[string]bool
	// Frequency thresholds of Layer 5 (Section 4.3): recipient address 20,
	// sender address 10, content 10. Zero values get these defaults.
	RcptThreshold    int
	SenderThreshold  int
	ContentThreshold int
}

// Classifier runs the five-layer funnel. Layers 1, 2 and 4 depend on
// the email alone and run in Prepare; Layer 3 is ordered and runs in
// Decide; Layer 5 requires corpus-wide frequencies and runs in Classify.
type Classifier struct {
	cfg    Config
	scorer *Scorer // the Layer 2 engine

	// memo holds the content facts of recently prepared contents.
	memo factMemo

	// mu orders Decide calls: Layer 3 state, accumulated across all
	// domains, keyed by the Layer 5 sender and content keys.
	mu          sync.Mutex
	spamSenders map[FreqKey]bool
	spamBags    map[FreqKey]bool
}

// NewClassifier creates a funnel over the given registered domains.
func NewClassifier(cfg Config) *Classifier {
	if cfg.RcptThreshold == 0 {
		cfg.RcptThreshold = 20
	}
	if cfg.SenderThreshold == 0 {
		cfg.SenderThreshold = 10
	}
	if cfg.ContentThreshold == 0 {
		cfg.ContentThreshold = 10
	}
	return &Classifier{
		cfg:         cfg,
		scorer:      NewScorer(),
		spamSenders: make(map[FreqKey]bool),
		spamBags:    make(map[FreqKey]bool),
	}
}

// registeredSuffix reports whether addr's domain is (a subdomain of) one
// of our registered domains.
func (c *Classifier) registeredSuffix(domain string) bool {
	domain = strings.ToLower(strings.TrimSuffix(domain, "."))
	for d := domain; d != ""; {
		if c.cfg.OurDomains[d] {
			return true
		}
		i := strings.IndexByte(d, '.')
		if i < 0 {
			break
		}
		d = d[i+1:]
	}
	return false
}

// layer1 detects erroneous header fields.
func (c *Classifier) layer1(e *Email) bool {
	// The relaying server must be one of our registered domains.
	if !c.registeredSuffix(e.ServerDomain) {
		return true
	}
	// We never send mail: a sender claiming one of our domains is spam.
	if d := mailmsg.AddrDomain(e.SenderAddr); d != "" && c.registeredSuffix(d) {
		return true
	}
	if d := mailmsg.AddrDomain(e.Msg.From()); d != "" && c.registeredSuffix(d) {
		return true
	}
	// Receiver/reflection typo email must be addressed to a typo domain
	// (SMTP typos are addressed to third parties by design).
	if !e.SMTPTypoDomain {
		if !c.registeredSuffix(mailmsg.AddrDomain(e.RcptAddr)) {
			return true
		}
	}
	return false
}

// layer4 detects reflection typos — output of automated systems. Its
// regex questions are answered in f.
func (c *Classifier) layer4(e *Email, f emailFacts) bool {
	m := e.Msg
	if m.HasHeader("List-Unsubscribe") || m.HasHeader("List-Id") || f.head.bounce {
		return true
	}
	// Any two of From, Reply-To, Return-Path with different values.
	var vals [3]string
	n := 0
	for _, h := range [...]string{"From", "Reply-To", "Return-Path"} {
		if v := mailmsg.Addr(m.Header(h)); v != "" {
			vals[n] = v
			n++
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if vals[i] != vals[j] {
				return true
			}
		}
	}
	return f.body.reflection || f.head.systemUser
}

// Prepared is one email's funnel evidence that depends on the email
// alone: the Layer 1, 2 and 4 outcome and its Layer 5 keys. Keys.Sender
// and Keys.Content double as Layer 3's sender and bag keys (a bag's
// content key is its signature), so a Prepared holds no body text.
type Prepared struct {
	Email *Email
	Keys  FreqKeys

	verdict           Verdict // before Layer 3
	layer             int
	rules             []string
	hasSender, hasBag bool
}

// Prepare runs everything in the funnel but Layer 3 on one email. Its
// content facts come from the classifier's memo, so each distinct
// content is worked out once; the envelope and header checks run for
// every email. It reads only the classifier's configuration and memo,
// so any goroutine may call it in any order.
func (c *Classifier) Prepare(e *Email) Prepared {
	cf := c.facts(e.Msg)
	sender := mailmsg.Addr(e.SenderAddr)
	p := Prepared{Email: e, hasSender: sender != "", hasBag: cf.hasBag}
	p.Keys.Rcpt = hashKey("", mailmsg.Addr(e.RcptAddr))
	p.Keys.Sender = hashKey("", sender)
	p.Keys.Content = cf.content
	switch {
	case c.layer1(e):
		p.verdict, p.layer = VerdictSpamHeader, 1
	case HasForbiddenArchive(e.Msg):
		p.verdict, p.layer = VerdictSpamArchive, 2
	default:
		f := emailFacts{body: cf.body, head: headerFactsOf(e.Msg, sender)}
		if score, hits := c.scorer.scoreWith(e.Msg, f); score >= c.scorer.Threshold {
			p.verdict, p.layer, p.rules = VerdictSpamScore, 2, hits
		} else if c.layer4(e, f) {
			p.verdict, p.layer = VerdictReflection, 4
		} else if e.SMTPTypoDomain && !c.registeredSuffix(mailmsg.AddrDomain(e.RcptAddr)) {
			p.verdict = VerdictSMTPTypo
		} else {
			p.verdict = VerdictReceiverTypo
		}
	}
	return p
}

// Decide runs Layer 3 on a prepared email: a non-spam email whose
// sender or bag of words an earlier spam verdict carried is
// collaborative spam, and every spam verdict extends those sets. The
// verdicts depend on call order, so callers decide in arrival order.
// Survivors are provisionally receiver or SMTP typos; Layer 5 may still
// reclassify them in Classify.
func (c *Classifier) Decide(p *Prepared) Result {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := Result{Email: p.Email, Verdict: p.verdict, Layer: p.layer, Rules: p.rules}
	if !r.Verdict.IsSpamVerdict() &&
		(p.hasSender && c.spamSenders[p.Keys.Sender] || p.hasBag && c.spamBags[p.Keys.Content]) {
		r = Result{Email: p.Email, Verdict: VerdictSpamCollab, Layer: 3}
	}
	if r.Verdict.IsSpamVerdict() {
		if p.hasSender {
			c.spamSenders[p.Keys.Sender] = true
		}
		if p.hasBag {
			c.spamBags[p.Keys.Content] = true
		}
	}
	return r
}

// ClassifyOne runs layers 1–4 on a single email, updating collaborative
// state. It is safe for concurrent use; concurrent callers' Layer 3
// verdicts follow the order their Decide calls take the lock in.
func (c *Classifier) ClassifyOne(e *Email) Result {
	p := c.Prepare(e)
	return c.Decide(&p)
}

// Classify runs the full funnel over a corpus in arrival order, applying
// Layer 5 frequency filtering to the receiver-typo survivors: recipient
// addresses, sender addresses or bodies that appear too often are
// automated artifacts, not unique human mistakes. Emails are prepared on
// par workers and decided in order.
func (c *Classifier) Classify(emails []*Email) []Result {
	ordered := append([]*Email(nil), emails...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Received.Before(ordered[j].Received) })

	prep := make([]Prepared, len(ordered))
	par.For(len(ordered), func(i int) { prep[i] = c.Prepare(ordered[i]) })
	results := make([]Result, len(ordered))
	for i := range prep {
		results[i] = c.Decide(&prep[i])
	}

	// Layer 5: corpus-wide frequencies over layer 1-4 survivors.
	freq := NewFreqTables()
	for i, r := range results {
		if r.Verdict.IsTrueTypo() {
			freq.Add(prep[i].Keys)
		}
	}
	for i := range results {
		c.ApplyLayer5(&results[i], prep[i].Keys, freq)
	}
	return results
}

// CountByVerdict tallies results per verdict.
func CountByVerdict(results []Result) map[Verdict]int {
	m := make(map[Verdict]int)
	for _, r := range results {
		m[r.Verdict]++
	}
	return m
}
