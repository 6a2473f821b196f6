package corpus

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"

	"repro/internal/mailmsg"
	"repro/internal/par"
)

func titleCase(s string) string {
	if s == "" {
		return s
	}
	return strings.ToUpper(s[:1]) + s[1:]
}

// LabeledMessage pairs a message with its spam ground truth.
type LabeledMessage struct {
	Msg  *mailmsg.Message
	Spam bool
}

// Dataset names the four Table 3 corpora.
type Dataset string

// The four spam-filter evaluation datasets of Table 3. Each stands in
// for the real corpus of the same flavor: mixed ham/spam with obvious
// spam (TREC-like), mixed with moderately obvious spam (CSDMC-like),
// the SpamAssassin public corpus mix, and the Untroubled archive —
// all spam, much of it low-signal.
const (
	DatasetTREC         Dataset = "TREC"
	DatasetCSDMC        Dataset = "CSDMC"
	DatasetSpamAssassin Dataset = "SpamAssassin"
	DatasetUntroubled   Dataset = "Untroubled"
)

// AllDatasets returns Table 3's row order.
func AllDatasets() []Dataset {
	return []Dataset{DatasetTREC, DatasetCSDMC, DatasetSpamAssassin, DatasetUntroubled}
}

// datasetProfile tunes the generator per dataset: the ham/spam mix and
// how evasive the spam is (0 = blatant, 1 = fully disguised).
type datasetProfile struct {
	n        int
	spamFrac float64
	evasion  float64
	seed     int64
}

var profiles = map[Dataset]datasetProfile{
	DatasetTREC:         {n: 1500, spamFrac: 0.55, evasion: 0.18, seed: 101},
	DatasetCSDMC:        {n: 1200, spamFrac: 0.40, evasion: 0.10, seed: 102},
	DatasetSpamAssassin: {n: 1200, spamFrac: 0.35, evasion: 0.14, seed: 103},
	DatasetUntroubled:   {n: 1000, spamFrac: 1.00, evasion: 0.72, seed: 104},
}

// genCache memoizes the deterministic datasets: generation is seeded,
// so every call to Generate(ds) produces the same corpus, and repeated
// analyses (Table 3 runs, benchmarks, differential tests) should not
// re-pay message construction. Callers get a fresh top-level slice but
// share the Message pointers, which are read-only by convention.
var (
	genMu    sync.Mutex
	genCache = map[Dataset][]LabeledMessage{}
)

// Generate produces the named dataset.
func Generate(ds Dataset) []LabeledMessage {
	genMu.Lock()
	msgs, ok := genCache[ds]
	if !ok {
		msgs = generate(ds)
		genCache[ds] = msgs
	}
	genMu.Unlock()
	if msgs == nil {
		return nil
	}
	return append([]LabeledMessage(nil), msgs...)
}

func generate(ds Dataset) []LabeledMessage {
	p, ok := profiles[ds]
	if !ok {
		return nil
	}
	rng := par.Rand(p.seed, 0)
	out := make([]LabeledMessage, 0, p.n)
	for i := 0; i < p.n; i++ {
		if rng.Float64() < p.spamFrac {
			out = append(out, LabeledMessage{Msg: SpamMessage(rng, p.evasion), Spam: true})
		} else {
			out = append(out, LabeledMessage{Msg: HamMessage(rng), Spam: false})
		}
	}
	return out
}

// HamMessage builds a benign person-to-person email.
func HamMessage(rng *rand.Rand) *mailmsg.Message {
	doc := plainDoc(rng)
	from := PersonAddr(rng, pick(rng, []string{"enron.com", "gmail.com", "aol.com", "comcast.net"}))
	to := PersonAddr(rng, pick(rng, []string{"gmail.com", "hotmail.com", "outlook.com"}))
	b := mailmsg.NewBuilder(from, to, doc.Subject).Body(doc.Text)
	b.MessageID(fmt.Sprintf("ham-%d@%s", rng.Int63(), mailmsg.AddrDomain(from)))
	return b.Build()
}

// SpamMessage builds a spam email at the given evasion level. Low
// evasion trips many filter rules (shouty subject, spam phrases, money
// amounts, link farms); high evasion mimics transactional mail and slips
// past keyword rules.
func SpamMessage(rng *rand.Rand, evasion float64) *mailmsg.Message {
	evasive := rng.Float64() < evasion
	var subject, body string
	if evasive {
		subject = pick(rng, SpamSubjectsSubtle)
		var sb strings.Builder
		for i := 0; i < 2+rng.Intn(3); i++ {
			sb.WriteString(titleCase(pick(rng, SubtleSpamPhrases)))
			sb.WriteString(". ")
		}
		body = sb.String()
	} else {
		subject = pick(rng, SpamSubjectsObvious)
		var sb strings.Builder
		for i := 0; i < 3+rng.Intn(5); i++ {
			sb.WriteString(strings.ToUpper(pick(rng, SpamPhrases)))
			sb.WriteString("!!! ")
		}
		fmt.Fprintf(&sb, "\nOnly $%d.99 today. ", 9+rng.Intn(90))
		for i := 0; i < 2+rng.Intn(4); i++ {
			fmt.Fprintf(&sb, "http://%s.ru/offer?id=%d ", pick(rng, FirstNames), rng.Intn(1e6))
		}
		body = sb.String()
	}
	from := fmt.Sprintf("%s%d@%s", pick(rng, FirstNames), rng.Intn(10000),
		pick(rng, []string{"offers-zone.ru", "bulkblast.cn", "freemail.biz", "promo-hub.info"}))
	to := PersonAddr(rng, pick(rng, []string{"gmail.com", "hotmail.com", "yahoo.com"}))
	b := mailmsg.NewBuilder(from, to, subject).Body(body)
	if !evasive {
		if rng.Float64() < 0.5 {
			// Forged Reply-To differing from From: a classic header tell.
			b.Header("Reply-To", fmt.Sprintf("claims%d@collect-prize.ru", rng.Intn(1000)))
		}
		if rng.Float64() < 0.25 {
			// The paper drops every ZIP/RAR attachment as spam on sight.
			ext := pick(rng, []string{"zip", "rar"})
			b.Attach("invoice."+ext, "application/octet-stream", []byte{0x50, 0x4B, 0x03, 0x04, byte(rng.Intn(256))})
		}
	} else if rng.Float64() < 0.4 {
		b.Attach("document.pdf", "application/pdf", []byte("%SPDF-1.0\nobj 4\nscan\nendobj\n%%EOF\n"))
	}
	b.MessageID(fmt.Sprintf("spam-%d@%s", rng.Int63(), mailmsg.AddrDomain(from)))
	return b.Build()
}

// CampaignMessage builds one message of a spam campaign: all messages of
// a campaign share their body skeleton (same bag of words), which is what
// Layer 3's collaborative filter keys on.
func CampaignMessage(rng *rand.Rand, campaignID int, evasion float64) *mailmsg.Message {
	// The campaign's fixed content is a pure function of its ID (and the
	// evasion level), built once and cloned per message; only the
	// recipient and trivial fields are randomized.
	msg := campaignSkeleton(campaignID, evasion).Clone()
	to := PersonAddr(rng, pick(rng, []string{"gmail.com", "hotmail.com", "outlook.com", "yahoo.com"}))
	msg.SetHeader("To", to)
	// <c{campaignID}-{Int63}@spam.example>, built without fmt.
	var buf [64]byte
	id := strconv.AppendInt(append(buf[:0], "<c"...), int64(campaignID), 10)
	id = strconv.AppendInt(append(id, '-'), rng.Int63(), 10)
	msg.SetHeader("Message-Id", string(append(id, "@spam.example>"...)))
	return msg
}

// skeletonKey names one campaign body: the same ID at a different
// evasion level is a different message.
type skeletonKey struct {
	id      int
	evasion float64
}

// skeletonCache memoizes campaign bodies, in genCache's idiom. Seeding
// the campaign's PRNG is cheap now that par.Rand is splitmix64, but
// drawing and formatting the body costs far more than a Clone, which
// copies only the header field slice and the attachments, so the memo
// stays for the formatting cost.
// Entries never leave the package: CampaignMessage returns clones, and
// Clone shares nothing that either side can write in place.
var (
	skeletonMu    sync.Mutex
	skeletonCache = map[skeletonKey]*mailmsg.Message{}
)

func campaignSkeleton(id int, evasion float64) *mailmsg.Message {
	k := skeletonKey{id, evasion}
	skeletonMu.Lock()
	defer skeletonMu.Unlock()
	msg, ok := skeletonCache[k]
	if !ok {
		msg = SpamMessage(par.Rand(13, id), evasion)
		skeletonCache[k] = msg
	}
	return msg
}

// ScamMessage builds the kind of spam that beats every automated layer:
// a hand-written, one-off advance-fee or business-proposition email with
// a unique sender, unique wording, no links, no list headers and no
// archive attachments. These are what the paper's manual analysis found
// hiding among the funnel survivors (~20% of them).
func ScamMessage(rng *rand.Rand, rcpt string) *mailmsg.Message {
	first, last := PersonName(rng)
	from := fmt.Sprintf("%s.%s%d@%s", first, last, rng.Intn(1000),
		pick(rng, []string{"gmail.com", "yahoo.com", "hotmail.com"}))
	openers := []string{
		"Greetings to you and your family.",
		"I hope this message finds you well.",
		"Pardon my intrusion into your busy schedule.",
		"It is with trust that I contact you today.",
	}
	asks := []string{
		"a confidential business proposition of mutual benefit",
		"the transfer of a dormant family estate",
		"an investment opportunity in my late husband's holdings",
		"assistance with a charitable endowment",
	}
	body := fmt.Sprintf("%s\n\nI am %s %s, and I wish to discuss %s with you. "+
		"The %s involved is considerable and requires a trustworthy partner such as yourself. "+
		"Kindly respond so I may share the particulars of the %s.\n\nWith respect,\n%s %s\n",
		pick(rng, openers), titleCase(first), titleCase(last), pick(rng, asks),
		pick(rng, BusinessWords), pick(rng, BusinessWords), titleCase(first), titleCase(last))
	b := mailmsg.NewBuilder(from, rcpt, "a matter of importance").Body(body)
	b.MessageID(fmt.Sprintf("scam-%d@%s", rng.Int63(), mailmsg.AddrDomain(from)))
	return b.Build()
}

// ReflectionMessage builds the automated mail a service sends to a
// mistyped registration address: list headers, unsubscribe text, a
// service sender — everything Layer 4 detects.
func ReflectionMessage(rng *rand.Rand, rcpt string) *mailmsg.Message {
	service := pick(rng, ServiceNames)
	from := fmt.Sprintf("no-reply@%s.com", service)
	phrase := pick(rng, NewsletterPhrases)
	b := mailmsg.NewBuilder(from, rcpt, titleCase(service)+" — confirm your registration").
		Body(fmt.Sprintf("Welcome to %s!\nYour registration is almost complete.\n\n%s\n",
			service, phrase)).
		HTML(fmt.Sprintf("<html><body><h1>Welcome to %s!</h1><p>Your registration is almost complete.</p><p><a href=\"https://%s.com/confirm\">Confirm</a></p><p style=\"font-size:smaller\">%s</p></body></html>",
			service, service, phrase))
	b.Header("List-Unsubscribe", fmt.Sprintf("<https://%s.com/unsub>", service))
	b.Header("Sender", "bounce-"+service+"@"+service+".com")
	b.MessageID(fmt.Sprintf("refl-%d@%s.com", rng.Int63(), service))
	return b.Build()
}
