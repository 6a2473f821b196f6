package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/bits"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dnsserve"
	"repro/internal/dnswire"
	"repro/internal/mailmsg"
	"repro/internal/par"
	"repro/internal/resolve"
	"repro/internal/sanitize"
	"repro/internal/smtpc"
	"repro/internal/smtpd"
	"repro/internal/spamfilter"
	"repro/internal/spamgen"
	"repro/internal/users"
	"repro/internal/vault"
)

// ingest: the cmd/collector path over loopback. A dnsserve server answers
// the Table 1 zone of every study domain; an smtpd server's Deliver runs
// the collector's sequence (mailmsg.Parse → ClassifyOne → Redact →
// vault.Put). An open-loop generator sends the study's mix of mail through
// smtpc.SendViaMX and a resolve.Resolver, one SMTP session per message,
// over ingestConns connections. Each latency is timed from the message's
// due time.
const (
	ingestConns = 2 // at most nproc = 2 on the reference box
	// refRate is the rate latency is reported at, about a sixth of what
	// the two connections drain closed-loop on the reference box, so its
	// latency is the path's own rather than queueing (NOTES.md).
	refRate  = 500.0
	p99Limit = 25 * time.Millisecond
	// The reference rate runs in windows of windowN messages, enough for
	// ten samples beyond each window's p99, for refShare of --seconds.
	windowN  = 1000
	refShare = 0.50
	// After each reference window, burstsPerWindow closed-loop backlogs of
	// burstN messages are drained as fast as the connections go: wall_s
	// and emails_per_s. Interleaving spreads both measurements over the
	// whole run instead of one stretch of it.
	burstsPerWindow = 2
	burstN          = 400
	// The capacity search offers rates from a fixed grid, refRate ×
	// 2^(i/gridPerOctave) for 0 < i < gridTop: 4.4% apart from the
	// reference rate up to 8,000/s, well above the burst capacity. It
	// bisects for the highest grid rate that passes, in log2(gridTop) = 6
	// probes of probeN messages each: enough for a backlog to show 5%
	// above capacity, and the same count on every path, so every run
	// sends the same number of messages. A run makes `searches` searches
	// spread between the reference windows; max_rate_per_s is their
	// median, so one unlucky probe does not decide it.
	gridPerOctave = 16
	gridTop       = 64
	probeN        = 2000
	searches      = 3
	warmupN       = 200 // untimed messages that fill the resolver cache and lazy matcher states
	seqHeader     = "X-Bench-Seq"
)

func gridRate(i int) float64 { return refRate * math.Pow(2, float64(i)/gridPerOctave) }

// offered is one generated message.
type offered struct {
	from, rcpt, domain string
	data               []byte
	planted            []string // identifiers that must never reach a vault plaintext
}

// trafficMix is the ingest load's mix, read from the materialized study
// at the same seed: of all the emails the study put through its funnel,
// the share of receiver-typo emails (what its vault stores) and of
// reflection-typo emails; the rest is the study's sampled spam. sensitive
// is how many high-value identifiers the study's sanitizer found per
// stored typo email (Figure 6's heatmap total over the vault records).
type trafficMix struct {
	typo, reflection, sensitive float64
}

func studyMix(seed int64) (trafficMix, error) {
	var c childOut
	if _, err := runSelf(&c, "materialized", seed); err != nil {
		return trafficMix{}, err
	}
	if c.Emails == 0 || c.VaultRecords == 0 {
		return trafficMix{}, fmt.Errorf("the study at seed %d stored no typo mail", seed)
	}
	n := float64(c.Emails)
	return trafficMix{
		typo:       float64(c.VaultRecords) / n,
		reflection: float64(c.Reflections) / n,
		sensitive:  min(1, float64(c.Sensitive)/float64(c.VaultRecords)),
	}, nil
}

// plantedForm is a high-value identifier kind (the ones Figure 6 counts)
// with the text corpus.SensitiveLine writes around the identifier, so the
// identifier can be read back from the message for the leak check.
type plantedForm struct {
	kind           sanitize.Kind
	prefix, suffix string
}

var plantedForms = []plantedForm{
	{sanitize.KindCreditCard, "Amex ", " for the booking."},
	{sanitize.KindSSN, "My ssn is ", " for the form."},
	{sanitize.KindEIN, "The company EIN: ", "."},
	{sanitize.KindPassword, "password: ", ""},
	{sanitize.KindVIN, "Vehicle vin ", " needs registration."},
	{sanitize.KindUsername, "username: ", ""},
	{sanitize.KindIDNumber, "Your account number is ", "."},
}

// read returns the identifier on the body's last line, where
// corpus.TypoEmail puts the sensitive line.
func (f plantedForm) read(body string) (string, bool) {
	body = strings.TrimRight(body, "\r\n")
	line := body[strings.LastIndexByte(body, '\n')+1:]
	id, ok := strings.CutPrefix(line, f.prefix)
	if !ok {
		return "", false
	}
	id, ok = strings.CutSuffix(id, f.suffix)
	return id, ok && id != ""
}

// inputGen builds the offered messages; message k depends only on the
// seed, the mix and k. Recipients are at receiver and disposable study
// domains (SMTP-trap mail is addressed elsewhere).
type inputGen struct {
	seed    int64
	mix     trafficMix
	domains []string
}

func newInputGen(seed int64, mix trafficMix) *inputGen {
	g := &inputGen{seed: seed, mix: mix}
	for _, d := range core.AllStudyDomains() {
		if d.Kind != core.KindSMTPTrap {
			g.domains = append(g.domains, d.Name)
		}
	}
	return g
}

func (g *inputGen) message(k int) (offered, error) {
	rng := par.Rand(g.seed, k)
	domain := g.domains[rng.Intn(len(g.domains))]
	rcpt := users.RandomLocalPart(rng) + "@" + domain
	var msg *mailmsg.Message
	var planted []string
	switch x := rng.Float64(); {
	case x < g.mix.typo:
		var form *plantedForm
		var kinds []sanitize.Kind
		if rng.Float64() < g.mix.sensitive {
			form = &plantedForms[rng.Intn(len(plantedForms))]
			kinds = []sanitize.Kind{form.kind}
		}
		msg = corpus.TypoEmail(rng, corpus.PersonAddr(rng, "gmail.com"), rcpt, kinds)
		if form != nil {
			id, ok := form.read(msg.Body)
			if !ok {
				return offered{}, fmt.Errorf("message %d: no %s line where corpus.TypoEmail puts it", k, form.kind)
			}
			planted = append(planted, id)
			if form.kind == sanitize.KindSSN {
				planted = append(planted, strings.ReplaceAll(id, "-", ""))
			}
		}
	case x < g.mix.typo+g.mix.reflection:
		msg = corpus.ReflectionMessage(rng, rcpt)
	default:
		e := spamgen.New(spamgen.DefaultParams(), rng.Int63()).Materialize(1, domain, false)[0]
		msg, rcpt = e.Msg, e.RcptAddr
	}
	msg.SetHeader("To", rcpt)
	msg.SetHeader(seqHeader, strconv.Itoa(k))
	return offered{from: mailmsg.Addr(msg.From()), rcpt: rcpt, domain: domain, data: msg.Bytes(), planted: planted}, nil
}

// stack is the collection side plus the sending client, all in-process.
type stack struct {
	cancel   context.CancelFunc
	dns      *dnsserve.Server
	smtp     *smtpd.Server
	done     sync.WaitGroup
	resolver *resolve.Resolver
	client   *smtpc.Client
	vault    *vault.Vault
	sani     *sanitize.Sanitizer
	cls      *spamfilter.Classifier
	canon    map[string]string
	tr       atomic.Pointer[tracer] // the current phase's tracer, nil when untraced

	// clsMu serializes ClassifyOne: the Classifier's Layer 3 maps are not
	// synchronized, and smtpd runs Deliver on concurrent sessions.
	clsMu    sync.Mutex
	verdicts map[spamfilter.Verdict]int // guarded by clsMu
	typos    int                        // guarded by clsMu

	delivered []atomic.Int32 // per message: successful Deliver calls
	deliverOK atomic.Int64
}

// bringUp starts the DNS and SMTP servers and warms the resolver over
// every study domain. The returned duration is the set-up time.
func bringUp(seed int64, nMsgs int) (*stack, time.Duration, error) {
	start := time.Now()
	ctx, cancel := context.WithCancel(context.Background())
	st := &stack{cancel: cancel, canon: map[string]string{},
		verdicts: map[spamfilter.Verdict]int{}, delivered: make([]atomic.Int32, nMsgs)}
	domains := core.AllStudyDomains()
	ours := map[string]bool{}
	store := dnsserve.NewStore()
	for _, d := range domains {
		ours[d.Name] = true
		st.canon[d.Name] = d.Name
		store.Put(dnsserve.TypoZone(d.Name, dnswire.IPv4(127, 0, 0, 1)))
	}
	v, err := vault.Open(vault.DeriveKey("bench-vault-passphrase"))
	if err != nil {
		cancel()
		return nil, 0, err
	}
	st.vault = v
	st.sani = sanitize.New("bench-salt")
	st.cls = spamfilter.NewClassifier(spamfilter.Config{OurDomains: ours})

	st.dns = dnsserve.NewServer(store)
	dnsBound := make(chan net.Addr, 1)
	dnsErr := make(chan error, 1)
	st.done.Add(1)
	go func() {
		defer st.done.Done()
		dnsErr <- st.dns.ListenAndServe(ctx, "127.0.0.1:0", dnsBound)
	}()
	st.smtp, err = smtpd.NewServer(smtpd.Config{
		Hostname: "collector.study.example",
		Timeout:  10 * time.Second,
		Deliver:  st.deliver,
	})
	if err != nil {
		st.tearDown()
		return nil, 0, err
	}
	smtpBound := make(chan net.Addr, 1)
	smtpErr := make(chan error, 1)
	st.done.Add(1)
	go func() {
		defer st.done.Done()
		smtpErr <- st.smtp.ListenAndServe(ctx, "127.0.0.1:0", smtpBound)
	}()
	var dnsAddr, smtpAddr string
	for dnsAddr == "" || smtpAddr == "" {
		select {
		case a := <-dnsBound:
			dnsAddr = a.String()
		case a := <-smtpBound:
			smtpAddr = a.String()
		case err := <-dnsErr:
			st.tearDown()
			return nil, 0, fmt.Errorf("dns server: %w", err)
		case err := <-smtpErr:
			st.tearDown()
			return nil, 0, fmt.Errorf("smtp server: %w", err)
		}
	}
	st.resolver = resolve.New(&resolve.UDPExchanger{Server: dnsAddr, Timeout: time.Second, Retries: 2},
		resolve.WithSeed(par.SubSeed(seed, 1)))
	// Every MX host maps to the one collection server, as the Table 1
	// zones point every study domain at one address.
	st.client = &smtpc.Client{
		HelloName: "mta.sender.example",
		Timeout:   10 * time.Second,
		Dialer: func(ctx context.Context, network, _ string) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, network, smtpAddr)
		},
	}
	for _, d := range domains {
		if _, _, err := st.resolver.MailHosts(ctx, d.Name); err != nil {
			st.tearDown()
			return nil, 0, fmt.Errorf("warming %s: %w", d.Name, err)
		}
	}
	return st, time.Since(start), nil
}

func (st *stack) tearDown() {
	st.cancel()
	if st.smtp != nil {
		st.smtp.Close()
	}
	st.dns.Close()
	st.done.Wait()
}

// deliver is cmd/collector's Deliver hook, with the classifier behind
// clsMu and a span around each layer call.
func (st *stack) deliver(env *smtpd.Envelope) error {
	tr := st.tr.Load()
	t0 := time.Now()
	msg, err := mailmsg.Parse(env.Data)
	parseD := time.Since(t0)
	if err != nil {
		return fmt.Errorf("unparseable message: %w", err)
	}
	seq, err := strconv.Atoi(msg.Header(seqHeader))
	if err != nil || seq < 0 || seq >= len(st.delivered) {
		return fmt.Errorf("message without a valid %s header", seqHeader)
	}
	rcpt := ""
	if len(env.Rcpts) > 0 {
		rcpt = env.Rcpts[0]
	}
	serverDomain := mailmsg.AddrDomain(rcpt)
	email := &spamfilter.Email{Msg: msg, ServerDomain: serverDomain, RcptAddr: rcpt,
		SenderAddr: env.MailFrom, Received: env.Received}

	t1 := time.Now()
	st.clsMu.Lock()
	t2 := time.Now()
	r := st.cls.ClassifyOne(email)
	st.verdicts[r.Verdict]++
	if r.Verdict.IsTrueTypo() {
		st.typos++
	}
	st.clsMu.Unlock()
	t3 := time.Now()

	var redactD, putD time.Duration
	var t4, t5 time.Time
	if r.Verdict.IsTrueTypo() {
		domain, known := st.canon[serverDomain]
		if !known {
			domain = "(unregistered domain)"
		}
		t4 = time.Now()
		clean, _ := st.sani.Redact(string(env.Data))
		redactD = time.Since(t4)
		t5 = time.Now()
		_, err := st.vault.Put(domain, r.Verdict.String(), env.Received, []byte(clean))
		putD = time.Since(t5)
		if err != nil {
			return err
		}
	}
	st.delivered[seq].Add(1)
	st.deliverOK.Add(1)
	if tr != nil {
		root := tr.add("smtpd.Deliver", t0, time.Since(t0), -1, seq)
		tr.add("mailmsg.Parse", t0, parseD, root, seq)
		tr.add("spamfilter.lock_wait", t1, t2.Sub(t1), root, seq)
		tr.add("spamfilter.Classifier.ClassifyOne", t2, t3.Sub(t2), root, seq)
		if r.Verdict.IsTrueTypo() {
			tr.add("sanitize.Sanitizer.Redact", t4, redactD, root, seq)
			tr.add("vault.Vault.Put", t5, putD, root, seq)
		}
	}
	return nil
}

// tracedResolver puts a span around each MailHosts call SendViaMX makes.
type tracedResolver struct {
	r      *resolve.Resolver
	tr     *tracer
	parent int
	msg    int
}

func (t tracedResolver) MailHosts(ctx context.Context, domain string) ([]string, bool, error) {
	sp := t.tr.begin("resolve.Resolver.MailHosts", t.parent, t.msg)
	defer t.tr.end(sp)
	return t.r.MailHosts(ctx, domain)
}

// sender returns the send function for messages base, base+1, ...
func (st *stack) sender(inputs []offered, base int) func(k int) error {
	return func(k int) error {
		seq := base + k
		m := inputs[seq]
		tr := st.tr.Load()
		sp := tr.begin("smtpc.Client.SendViaMX", -1, seq)
		err := st.client.SendViaMX(context.Background(), tracedResolver{st.resolver, tr, sp, seq},
			m.domain, smtpc.PortSMTP, m.from, []string{m.rcpt}, m.data)
		tr.end(sp)
		return err
	}
}

// phase is one open-loop step's messages and accounting.
type phase struct {
	base  int
	recs  []msgRec
	stats stepStats
}

func (st *stack) step(inputs []offered, base int, rate float64, n int) phase {
	recs := runStep(rate, n, ingestConns, st.sender(inputs, base))
	return phase{base: base, recs: recs, stats: account(recs, rate, ingestConns, p99Limit)}
}

func runIngest(o opts) (*report, error) {
	rep := &report{}
	mix, err := studyMix(o.seed)
	if err != nil {
		return nil, fmt.Errorf("reading the study's mix: %w", err)
	}
	fmt.Printf("mix from the study at seed %d: typo %.4f, reflection %.4f, spam %.4f; %.4f identifiers per typo email\n",
		o.seed, mix.typo, mix.reflection, 1-mix.typo-mix.reflection, mix.sensitive)
	gen := newInputGen(o.seed, mix)
	windows := max(1, int(refRate*refShare*o.seconds.Seconds())/windowN)
	refN := windows * windowN
	// The most messages the run can offer, so every one has a delivery
	// counter.
	capN := warmupN + 2*refN + windows*burstsPerWindow*burstN + searches*bits.Len(gridTop)*probeN

	setups, err := timeSetups(func() (time.Duration, error) {
		s, d, err := bringUp(o.seed, 0)
		if err != nil {
			return 0, err
		}
		s.tearDown()
		return d, s.vault.Close()
	})
	if err != nil {
		return nil, err
	}
	st, _, err := bringUp(o.seed, capN)
	if err != nil {
		return nil, err
	}
	defer st.vault.Close()

	// Messages are made just before the step that sends them, and their
	// bytes dropped after it, so the run holds one step's inputs at a time.
	var inputs []offered
	var genErr error
	step := func(rate float64, n int) phase {
		base := len(inputs)
		for k := base; k < base+n && genErr == nil; k++ {
			var m offered
			m, genErr = gen.message(k)
			inputs = append(inputs, m)
		}
		if genErr != nil {
			return phase{base: base}
		}
		p := st.step(inputs, base, rate, n)
		for k := base; k < base+n; k++ {
			inputs[k].data = nil
		}
		return p
	}
	// search bisects the grid: lo passed (the reference rate is grid
	// point 0), hi failed or is the untested top. It returns the achieved
	// rate of the highest grid rate that passed.
	var phases []phase
	search := func(lo, hi int, found float64) float64 {
		for hi-lo > 1 {
			mid := (lo + hi) / 2
			p := step(gridRate(mid), probeN)
			phases = append(phases, p)
			pass := p.stats.passes(p99Limit)
			fmt.Printf("probe %6.0f/s: p50=%.3fms p99=%.3fms backlog_end=%d growing=%v achieved=%.1f/s pass=%v\n",
				gridRate(mid), quantile(p.stats.LatencyMs, 0.5), quantile(p.stats.LatencyMs, 0.99),
				p.stats.BacklogEnd, p.stats.Growing, p.stats.Achieved, pass)
			if pass {
				lo, found = mid, p.stats.Achieved
			} else {
				hi = mid
			}
		}
		return found
	}
	phases = append(phases, step(refRate, warmupN))
	// ref holds the reference-rate windows; they always run untraced.
	var ref []phase
	var burstWalls, burstRates, found []float64
	searchEvery := max(1, windows/searches)
	for w := 0; w < windows; w++ {
		p := step(refRate, windowN)
		ref = append(ref, p)
		for b := 0; !o.trace && b < burstsPerWindow; b++ {
			start := time.Now()
			p := step(math.Inf(1), burstN)
			burstWalls = append(burstWalls, time.Since(start).Seconds())
			burstRates = append(burstRates, float64(burstN-p.stats.Failed)/burstWalls[len(burstWalls)-1])
			phases = append(phases, p)
		}
		if !o.trace && (w+1)%searchEvery == 0 && len(found) < searches {
			found = append(found, search(0, gridTop, p.stats.Achieved))
		}
	}
	for !o.trace && len(found) < searches {
		found = append(found, search(0, gridTop, ref[len(ref)-1].stats.Achieved))
	}
	phases = append(phases, ref...)
	var refLat, refLate []float64
	refPass := true
	for _, p := range ref {
		refLat = append(refLat, p.stats.LatencyMs...)
		refLate = append(refLate, p.stats.LateMs...)
		refPass = refPass && p.stats.passes(p99Limit)
	}
	if !o.trace && !refPass {
		fmt.Printf("WARNING: the reference rate %.0f/s missed the p99 limit in a window; the capacity search assumed it passed\n", refRate)
	}
	var tracedRef phase
	var before map[spamfilter.Verdict]int
	var hits0, miss0 int64
	if o.trace {
		st.clsMu.Lock()
		before = copyVerdicts(st.verdicts)
		st.clsMu.Unlock()
		hits0, miss0 = st.resolver.CacheStats()
		st.tr.Store(o.tr)
		tracedRef = step(refRate, refN)
		st.tr.Store(nil)
		phases = append(phases, tracedRef)
	}
	st.tearDown()
	if genErr != nil {
		return nil, genErr
	}

	// Correctness: every offered message delivered once or counted failed;
	// vault records equal the true-typo verdicts; no planted identifier in
	// any vault plaintext.
	for _, p := range phases {
		for k, r := range p.recs {
			seq := p.base + k
			rep.Attempted++
			got := st.delivered[seq].Load()
			switch {
			case r.err != nil:
				rep.Failed++
				rep.Problems = append(rep.Problems, fmt.Sprintf("message %d: send failed (%d deliveries): %v", seq, got, r.err))
			case got != 1:
				rep.Failed++
				rep.Problems = append(rep.Problems, fmt.Sprintf("message %d: delivered %d times", seq, got))
			}
		}
	}
	st.clsMu.Lock()
	typos, verdicts := st.typos, copyVerdicts(st.verdicts)
	st.clsMu.Unlock()
	rep.check(st.vault.Len() == typos, "vault holds %d records, the funnel admitted %d true typos", st.vault.Len(), typos)
	leaks, planted := plantedLeaks(st.vault, inputs)
	rep.check(leaks == 0, "%d of %d planted identifiers found in vault plaintexts", leaks, planted)
	fmt.Printf("planted identifiers: %d, none may reach the vault\n", planted)
	sessions, delivered := st.smtp.Stats()
	rep.check(delivered == st.deliverOK.Load(), "smtpd reports %d delivered, Deliver completed %d", delivered, st.deliverOK.Load())

	var p99s []float64
	for w, p := range ref {
		d := summarize(p.stats.LatencyMs)
		p99s = append(p99s, d.P99)
		fmt.Printf("reference window %d: %d samples, p50 %.3fms, p99 %.3fms with %d beyond (supported: %v)\n",
			w, d.N, d.Median, d.P99, d.BeyondP99, d.P99Supported)
	}
	fmt.Printf("reference rate %.0f/s: %d samples in %d windows, generator late p99 %.3fms\n",
		refRate, len(refLat), len(ref), quantile(refLate, 0.99))

	if o.trace {
		quits, aborts := st.smtp.SessionStats()
		hits, misses := st.resolver.CacheStats()
		ingestLayers(rep, o.tr, tracedRef, refLat, verdicts, before, hits-hits0, misses-miss0)
		rep.metric("ingest.latency_p99_ms", "ms", quantile(p99s, 0.5), p99s...)
		rep.metric("dnsserve.queries", "count", float64(st.dns.Served()))
		rep.metric("smtpd.sessions", "count", float64(sessions))
		rep.metric("smtpd.delivered", "count", float64(delivered))
		rep.metric("smtpd.quits", "count", float64(quits))
		rep.metric("smtpd.aborts", "count", float64(aborts))
		return rep, nil
	}
	rep.metric("setup_s", "s", quantile(setups, 0.5), setups...)
	rep.metric("emails_per_s", "1/s", quantile(burstRates, 0.5), burstRates...)
	rep.metric("wall_s", "s", quantile(burstWalls, 0.5), burstWalls...)
	rep.metric("peak_rss_mb", "MB", peakRSSMB())
	rep.metric("latency_p50_ms", "ms", quantile(refLat, 0.5))
	rep.metric("max_rate_per_s", "1/s", quantile(found, 0.5), found...)
	return rep, nil
}

func copyVerdicts(m map[spamfilter.Verdict]int) map[spamfilter.Verdict]int {
	out := make(map[spamfilter.Verdict]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// plantedLeaks counts planted identifiers that appear as a token in any
// vault plaintext, the sanitize-before-store invariant, prints the first
// few, and returns how many were planted in the messages offered.
func plantedLeaks(v *vault.Vault, inputs []offered) (leaks, planted int) {
	type plantedID struct {
		id  string
		msg int
	}
	var ids []plantedID
	for k, m := range inputs {
		for _, id := range m.planted {
			ids = append(ids, plantedID{id, k})
		}
	}
	for _, rec := range v.Meta() {
		text, _, err := v.Get(rec.ID)
		if err != nil {
			leaks++ // an unreadable record cannot be shown clean
			continue
		}
		for _, p := range ids {
			if i := tokenIndex(text, []byte(p.id)); i >= 0 {
				leaks++
				if leaks <= 5 {
					fmt.Printf("LEAK: identifier %q planted in message %d is in vault record %d: %q\n",
						p.id, p.msg, rec.ID, text[max(0, i-80):min(len(text), i+len(p.id)+40)])
				}
			}
		}
	}
	return leaks, len(ids)
}

// tokenIndex returns where id occurs in text with no letter or digit on
// either side, or -1. Short identifiers such as "Da4136" otherwise turn up
// inside the hex hashes the sanitizer writes in their place.
func tokenIndex(text, id []byte) int {
	alnum := func(i int) bool {
		if i < 0 || i >= len(text) {
			return false
		}
		c := text[i] | 0x20
		return c >= 'a' && c <= 'z' || text[i] >= '0' && text[i] <= '9'
	}
	for off := 0; ; {
		i := bytes.Index(text[off:], id)
		if i < 0 {
			return -1
		}
		i += off
		if !alnum(i-1) && !alnum(i+len(id)) {
			return i
		}
		off = i + 1
	}
}

// verdictNames are the funnel verdicts ClassifyOne can return, as metric
// name suffixes (Layer 5's frequency filter runs only in batch Classify).
var verdictNames = map[spamfilter.Verdict]string{
	spamfilter.VerdictSpamHeader:   "spam_header",
	spamfilter.VerdictSpamArchive:  "spam_archive",
	spamfilter.VerdictSpamScore:    "spam_score",
	spamfilter.VerdictSpamCollab:   "spam_collaborative",
	spamfilter.VerdictReflection:   "reflection_typo",
	spamfilter.VerdictReceiverTypo: "receiver_typo",
	spamfilter.VerdictSMTPTypo:     "smtp_typo",
}

func ingestLayers(rep *report, tr *tracer, traced phase, plainLat []float64, after, before map[spamfilter.Verdict]int, hits, misses int64) {
	us := func(name string) []float64 { return durs(tr.durations(name), time.Microsecond) }
	pct := func(metric string, xs []float64) {
		rep.metric(metric+"_p50", "us", quantile(xs, 0.5))
		rep.metric(metric+"_p99", "us", quantile(xs, 0.99))
	}
	sends := bySeq(tr, "smtpc.Client.SendViaMX")
	delivers := bySeq(tr, "smtpd.Deliver")
	lookups := bySeq(tr, "resolve.Resolver.MailHosts")
	var session []float64
	for seq, s := range sends {
		if d, ok := delivers[seq]; ok {
			session = append(session, float64(s-d-lookups[seq])/float64(time.Microsecond))
		}
	}
	pct("mailmsg.parse_us", us("mailmsg.Parse"))
	pct("smtpc.send_us", us("smtpc.Client.SendViaMX"))
	pct("smtpd.session_us", session)
	pct("spamfilter.classify_us", us("spamfilter.Classifier.ClassifyOne"))
	pct("spamfilter.lock_wait_us", us("spamfilter.lock_wait"))
	redacts, puts := us("sanitize.Sanitizer.Redact"), us("vault.Vault.Put")
	pct("sanitize.redact_us", redacts)
	rep.metric("sanitize.redact_calls", "count", float64(len(redacts)))
	pct("vault.put_us", puts)
	rep.metric("vault.put_calls", "count", float64(len(puts)))
	pct("resolve.mailhosts_us", us("resolve.Resolver.MailHosts"))
	if hits+misses > 0 {
		rep.metric("resolve.cache_hit_ratio", "ratio", float64(hits)/float64(hits+misses))
	}
	deliveredN, typos := 0, 0
	for v, name := range verdictNames {
		n := after[v] - before[v]
		rep.metric("spamfilter.verdict."+name, "count", float64(n))
		deliveredN += n
		if v.IsTrueTypo() {
			typos += n
		}
	}
	if deliveredN > 0 {
		rep.metric("ingest.typo_share", "ratio", float64(typos)/float64(deliveredN))
	}
	rep.metric("ingest.ref_samples", "count", float64(len(traced.stats.LatencyMs)))
	rep.metric("loadgen.late_p99_ms", "ms", quantile(traced.stats.LateMs, 0.99))
	rep.metric("loadgen.backlog_max", "count", float64(traced.stats.BacklogMax))
	overhead(rep, quantile(traced.stats.LatencyMs, 0.5)/1000, quantile(plainLat, 0.5)/1000)
}

// bySeq sums the durations of the named spans per message.
func bySeq(tr *tracer, name string) map[int]time.Duration {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := map[int]time.Duration{}
	for _, s := range tr.spans {
		if s.Name == name && s.Msg >= 0 {
			out[s.Msg] += time.Duration(s.End - s.Start)
		}
	}
	return out
}
