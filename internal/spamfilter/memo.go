package spamfilter

import (
	"sync"

	"repro/internal/mailmsg"
)

// contentID is a message's content exactly — the memo key. Keying on
// the strings themselves, not a digest of them, means a lookup can only
// hit on identical content, so the memo cannot change a verdict.
type contentID struct{ subject, body, html string }

func (k contentID) size() int { return len(k.subject) + len(k.body) + len(k.html) }

// contentFacts is the funnel evidence that is a pure function of a
// message's content and of the classifier's fixed configuration: the
// Layer 3/5 content key, and the scorer's content evidence with Layer
// 4's reflection-body match.
type contentFacts struct {
	content FreqKey
	hasBag  bool
	body    bodyFacts
}

// Memo bounds: a generation holds at most memoEntries entries and
// memoBytes bytes of content, and the memo holds two generations.
// Content larger than a generation is never memoized.
const (
	memoEntries = 512
	memoBytes   = 1 << 20
)

// factMemo maps distinct contents to their facts. It keeps two
// generations: a hit in the old one promotes the entry into the young
// one, and a full young generation becomes the old one, so recurring
// content (campaign spam) stays resident while one-off bodies age out,
// and the memo's size is bounded by constants.
type factMemo struct {
	mu         sync.Mutex
	young, old map[contentID]contentFacts
	youngBytes int
}

func (m *factMemo) get(k contentID) (contentFacts, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if f, ok := m.young[k]; ok {
		return f, true
	}
	f, ok := m.old[k]
	if ok {
		m.putLocked(k, f)
	}
	return f, ok
}

func (m *factMemo) put(k contentID, f contentFacts) {
	if k.size() > memoBytes {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.putLocked(k, f)
}

func (m *factMemo) putLocked(k contentID, f contentFacts) {
	if _, ok := m.young[k]; ok {
		return // a concurrent miss computed the same facts first
	}
	if m.young == nil {
		m.young, m.old = make(map[contentID]contentFacts), make(map[contentID]contentFacts)
	}
	if len(m.young) >= memoEntries || m.youngBytes+k.size() > memoBytes {
		clear(m.old)
		m.young, m.old, m.youngBytes = m.old, m.young, 0
	}
	m.young[k] = f
	m.youngBytes += k.size()
}

// facts returns the content facts of m, from the memo or computed from
// a single m.Text() call.
func (c *Classifier) facts(m *mailmsg.Message) contentFacts {
	k := contentID{m.Subject(), m.Body, m.HTMLBody}
	if f, ok := c.memo.get(k); ok {
		return f
	}
	text := m.Text()
	bag, hasBag := BagOfWords(text)
	f := contentFacts{
		content: contentKey(text, bag, hasBag),
		hasBag:  hasBag,
		body:    bodyFactsOf(k.subject, k.body, k.html, text),
	}
	c.memo.put(k, f)
	return f
}
