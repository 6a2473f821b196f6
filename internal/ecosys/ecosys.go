// Package ecosys generates the email-typosquatting ecosystem the paper
// measures in Section 5: for every popular target domain, which DL-1
// gtypos are actually registered (ctypos), by whom, with what DNS/MX
// configuration, WHOIS record and name server.
//
// The generative actor models are parameterized to reproduce the paper's
// concentration findings:
//
//   - a handful of bulk typosquatters own a large share of ctypos and
//     point them at a tiny pool of shared mail exchangers (Figure 8,
//     Table 6: eleven SMTP servers handle a third of domains, eight
//     privately-registered MX domains cover 95% of accepting ones);
//   - parking companies hold domains for resale, many with SMTP on;
//   - trademark owners register defensively (excluded from
//     "typosquatting domains" by the taxonomy);
//   - a long tail of small squatters and coincidental legitimate
//     businesses fills out the registrant distribution;
//   - a few name servers serve a wildly disproportionate share of typo
//     domains (the "cesspools" with up to 89% typo ratio).
package ecosys

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/alexa"
	"repro/internal/distance"
	"repro/internal/par"
	"repro/internal/typogen"
	"repro/internal/whois"
)

// RegistrantKind is the actor model behind a registration.
type RegistrantKind int

// Actor kinds.
const (
	KindBulkSquatter RegistrantKind = iota
	KindParker
	KindDefensive
	KindSmallSquatter
	KindLegitBusiness
)

func (k RegistrantKind) String() string {
	switch k {
	case KindBulkSquatter:
		return "bulk-squatter"
	case KindParker:
		return "parker"
	case KindDefensive:
		return "defensive"
	case KindSmallSquatter:
		return "small-squatter"
	default:
		return "legit-business"
	}
}

// SMTPSupport is the Table 4 category of a ctypo domain.
type SMTPSupport int

// Table 4 rows.
const (
	SupportNoRecords SMTPSupport = iota // no MX or A record found
	SupportNoInfo                       // scan had no data for the address
	SupportNoEmail                      // host up, no SMTP service
	SupportPlain                        // SMTP without STARTTLS
	SupportTLSErrors                    // STARTTLS with certificate errors
	SupportTLSOK                        // STARTTLS without errors
)

func (s SMTPSupport) String() string {
	switch s {
	case SupportNoRecords:
		return "No MX or A record found"
	case SupportNoInfo:
		return "No info"
	case SupportNoEmail:
		return "No email supp."
	case SupportPlain:
		return "Supp. email, no STARTTLS"
	case SupportTLSErrors:
		return "Supp. STARTTLS with errors"
	default:
		return "Supp. STARTTLS w/o errors"
	}
}

// ProbeBehavior is how a domain's mail server treats a honey probe —
// Table 5's rows.
type ProbeBehavior int

// Probe behaviors.
const (
	BehaviorAccept ProbeBehavior = iota
	BehaviorBounce
	BehaviorTimeout
	BehaviorNetError
	BehaviorOther
)

func (b ProbeBehavior) String() string {
	switch b {
	case BehaviorAccept:
		return "no error"
	case BehaviorBounce:
		return "bounce"
	case BehaviorTimeout:
		return "timeout"
	case BehaviorNetError:
		return "network error"
	default:
		return "other error"
	}
}

// Registrant is one clustered owner of typo domains.
type Registrant struct {
	ID      int
	Kind    RegistrantKind
	Record  whois.Record // identity template (domain field left empty)
	Private bool

	MailHost   string // shared MX host; "" = no mail infrastructure
	NameServer string

	Domains []string
}

// DomainInfo is one registered ctypo with its full configuration.
type DomainInfo struct {
	Name   string
	Target string
	Op     distance.EditOp
	Visual float64

	Registrant *Registrant
	MX         []string
	HasA       bool
	Support    SMTPSupport
	Behavior   ProbeBehavior
	// ReadsMail marks the rare registrant who actually opens received
	// email (Section 7 saw ~22 opens over ~58k domains probed).
	ReadsMail bool
	// Traffic is the AWIS-style relative popularity sample.
	Traffic float64
}

// IsTyposquatting applies the taxonomy: registered to benefit from the
// target's traffic AND owned by a different entity — defensive and
// coincidental registrations don't count.
func (d *DomainInfo) IsTyposquatting() bool {
	return d.Registrant.Kind != KindDefensive && d.Registrant.Kind != KindLegitBusiness
}

// Config sizes the ecosystem.
type Config struct {
	// Targets is how many top universe domains to generate typos for.
	Targets int
	// UniverseSize is the synthetic Alexa list length.
	UniverseSize int
	Seed         int64

	// BulkSquatters and SharedMailHosts control the concentration.
	BulkSquatters   int
	SharedMailHosts int
}

// DefaultConfig returns a laptop-scale ecosystem that preserves the
// paper's distributions. (The paper's full run covers the top 1M; scale
// up Targets/UniverseSize for a closer absolute match.)
func DefaultConfig() Config {
	return Config{
		Targets:         400,
		UniverseSize:    4000,
		Seed:            20161105, // the paper's gtypo generation date
		BulkSquatters:   12,
		SharedMailHosts: 9,
	}
}

// Ecosystem is the generated world.
type Ecosystem struct {
	Universe    *alexa.Universe
	Domains     map[string]*DomainInfo
	Registrants []*Registrant
	// NameServerDomains maps every name server to all domains it serves,
	// typo or benign — the zone-file view behind the suspicious-NS ratio.
	NameServerDomains map[string][]string

	cfg Config
}

// sharedMailHostNames mirrors Table 6's flavor: short meaningless
// privately-registered MX domains.
var sharedMailHostNames = []string{
	"b-io.co", "h-email.net", "mb5p.com", "m1bp.com", "mb1p.com",
	"hostedmxserver.com", "hope-mail.com", "m2bp.com", "mx-pool.net",
	"parkmx.org", "null-mx.info", "mailsink.biz",
}

// Sub-stream indices of Generate's phases under cfg.Seed. Each phase
// draws from its own splitmix64-derived stream, so the per-target work
// can run on any number of par workers and still produce exactly the
// snapshot a sequential run produces. The indices are part of the seed
// contract: changing them changes every seeded ecosystem. The values
// are otherwise arbitrary; these were picked so the default seed's
// realization keeps the rare populations non-empty at laptop scale —
// mail readers (Section 7.2, expectation ~2) and defensive
// registrations in the small test config.
const (
	streamRegistrants = 0
	streamTargets     = 9
	streamPrefixes    = 10
	streamNameServers = 11
)

// Generate builds the ecosystem. Per-target registration, ownership and
// configuration decisions are sharded across par's worker pool — each
// target draws from a PRNG derived from (Seed, target index) — and the
// results are merged in target order, so output is byte-identical at
// any worker count.
func Generate(cfg Config) *Ecosystem {
	uni := alexa.NewUniverse(cfg.UniverseSize, cfg.Seed)
	eco := &Ecosystem{
		Universe:          uni,
		Domains:           make(map[string]*DomainInfo),
		NameServerDomains: make(map[string][]string),
		cfg:               cfg,
	}

	registrants := eco.makeRegistrants(par.Rand(cfg.Seed, streamRegistrants))

	// Weighted ownership: bulk squatters grab most attractive typos, with
	// a Zipf-ish skew among them; the long tail goes to small actors.
	// Workers only read the registrant roster; the ownership append
	// happens in the merge, in target order, so the insertion order
	// (including the overwrite-and-double-append behavior when two
	// targets generate the same typo domain) is the sequential one.
	targets := uni.Top(cfg.Targets)
	for _, infos := range par.Map(par.SubSeed(cfg.Seed, streamTargets), targets,
		func(i int, target alexa.Domain, rng *rand.Rand) []*DomainInfo {
			var out []*DomainInfo
			pop := 1.0 / math.Pow(float64(target.Rank), 0.45)
			for _, typo := range typogen.GenerateAll(target.Name) {
				p := registrationProbability(pop, typo)
				if rng.Float64() >= p {
					continue
				}
				owner := eco.pickOwner(rng, target, typo, registrants)
				out = append(out, eco.configureDomain(rng, target, typo, owner))
			}
			return out
		}) {
		eco.merge(infos)
	}

	// Deliberate service-prefix registrations (smtpgmail.com and friends,
	// Section 5.2) by squatters, privately registered.
	emailTargets := uni.EmailCategory()
	for _, infos := range par.Map(par.SubSeed(cfg.Seed, streamPrefixes), emailTargets,
		func(i int, target alexa.Domain, rng *rand.Rand) []*DomainInfo {
			var out []*DomainInfo
			for _, typo := range typogen.ServicePrefixTypos(target.Name, []string{"smtp", "mail", "webmail"}) {
				if rng.Float64() > 0.35 {
					continue
				}
				owner := registrants[rng.Intn(cfg.BulkSquatters)] // bulk actors
				out = append(out, eco.configureDomain(rng, target, typo, owner))
			}
			return out
		}) {
		eco.merge(infos)
	}

	eco.Registrants = registrants
	eco.assignNameServers(par.Rand(cfg.Seed, streamNameServers))
	return eco
}

// merge folds one worker's configured domains into the snapshot.
func (e *Ecosystem) merge(infos []*DomainInfo) {
	for _, info := range infos {
		e.Domains[info.Name] = info
		info.Registrant.Domains = append(info.Registrant.Domains, info.Name)
	}
}

// registrationProbability models "the most interesting typo domains are
// already registered": popular targets and inconspicuous typos attract
// registration. pop is the target's popularity, Rank^-0.45, worked out
// once per target by the caller.
func registrationProbability(pop float64, typo typogen.Typo) float64 {
	vis := math.Exp(-1.8 * typo.Visual)
	mistake := alexa.MistakeWeight(typo.Op)*0.6 + 0.4 // attractive classes slightly preferred
	p := 0.75 * pop * vis * mistake
	if p > 0.95 {
		p = 0.95
	}
	return p
}

func (e *Ecosystem) makeRegistrants(rng *rand.Rand) []*Registrant {
	var out []*Registrant
	id := 0
	add := func(kind RegistrantKind, private bool, mailHost, ns string) *Registrant {
		id++
		first := strings.ToLower(fmt.Sprintf("%s%d", kindShort(kind), id))
		rec := whois.Record{
			RegistrantName: titleish(first) + " Holdings",
			Organization:   titleish(first) + " LLC",
			Email:          first + "@" + first + "-corp.example",
			Phone:          fmt.Sprintf("+1.555%07d", id*7919%9999999),
			Fax:            fmt.Sprintf("+1.555%07d", id*104729%9999999),
			MailingAddress: fmt.Sprintf("%d Registrant Way", id),
			Registrar:      pickRegistrar(rng),
			Created:        time.Date(2010+rng.Intn(6), time.Month(1+rng.Intn(12)), 1+rng.Intn(28), 0, 0, 0, 0, time.UTC),
			Private:        private,
		}
		r := &Registrant{ID: id, Kind: kind, Record: rec, Private: private, MailHost: mailHost, NameServer: ns}
		out = append(out, r)
		return r
	}

	// Bulk squatters: share the small MX pool with a heavy skew, half are
	// private, most cluster on "cesspool" name servers.
	for i := 0; i < e.cfg.BulkSquatters; i++ {
		mx := sharedMailHostNames[pickSkewed(rng, e.cfg.SharedMailHosts)]
		ns := fmt.Sprintf("ns%d.cesspool%d.example", 1+i%2, 1+i%3)
		add(KindBulkSquatter, i%2 == 0, mx, ns)
	}
	// Parkers: top three registrants in the paper are domain resellers.
	for i := 0; i < 3; i++ {
		add(KindParker, false, "parkmx.org", fmt.Sprintf("ns%d.parkit.example", i+1))
	}
	// One defensive registrant per email provider.
	for _, p := range alexa.EmailProviders {
		r := add(KindDefensive, false, "mx."+p.Name, "ns1."+p.Name)
		r.Record.Organization = titleish(distance.SLD(p.Name)) + " Inc"
		r.Record.RegistrantName = titleish(distance.SLD(p.Name)) + " Legal Dept"
	}
	// Long tail: small squatters and legit businesses.
	for i := 0; i < 600; i++ {
		kind := KindSmallSquatter
		if rng.Float64() < 0.25 {
			kind = KindLegitBusiness
		}
		mail := ""
		if rng.Float64() < 0.5 {
			mail = fmt.Sprintf("mail.small%d.example", id+1)
		}
		add(kind, rng.Float64() < 0.3, mail, fmt.Sprintf("ns1.hoster%d.example", rng.Intn(40)))
	}
	return out
}

// pickSkewed samples index 0..n-1 with a Zipf-like skew so the first
// mail hosts dominate (Table 6: the top host alone covers 43.6%).
func pickSkewed(rng *rand.Rand, n int) int {
	weights := make([]float64, n)
	total := 0.0
	for i := range weights {
		weights[i] = 1 / math.Pow(float64(i+1), 1.4)
		total += weights[i]
	}
	x := rng.Float64() * total
	for i, w := range weights {
		x -= w
		if x <= 0 {
			return i
		}
	}
	return n - 1
}

// pickOwner routes a fresh ctypo to an actor: attractive typos of popular
// targets go to bulk squatters; trademark owners defend a slice of the
// most obvious ones; the rest scatters.
func (e *Ecosystem) pickOwner(rng *rand.Rand, target alexa.Domain, typo typogen.Typo, regs []*Registrant) *Registrant {
	attractive := target.EmailRank > 0 && typo.Visual < 0.4
	r := rng.Float64()
	switch {
	case attractive && r < 0.12:
		// defensive registration by the target's owner
		for _, reg := range regs {
			if reg.Kind == KindDefensive && strings.Contains(reg.Record.Organization, titleish(distance.SLD(target.Name))) {
				return reg
			}
		}
		fallthrough
	case attractive && r < 0.70:
		return regs[pickSkewed(rng, e.cfg.BulkSquatters)]
	case r < 0.55: // less attractive: parkers and bulk still big
		if rng.Float64() < 0.5 {
			return regs[pickSkewed(rng, e.cfg.BulkSquatters)]
		}
		return regs[e.cfg.BulkSquatters+rng.Intn(3)] // parkers
	default:
		tail := regs[e.cfg.BulkSquatters+3+len(alexa.EmailProviders):]
		return tail[rng.Intn(len(tail))]
	}
}

// configureDomain draws DNS/SMTP configuration conditioned on the owner.
func (e *Ecosystem) configureDomain(rng *rand.Rand, target alexa.Domain, typo typogen.Typo, owner *Registrant) *DomainInfo {
	info := &DomainInfo{
		Name: typo.Domain, Target: target.Name, Op: typo.Op, Visual: typo.Visual,
		Registrant: owner,
	}
	info.Traffic = alexa.TypoTraffic(target, typo.Op, typo.Visual, rng)

	r := rng.Float64()
	switch owner.Kind {
	case KindBulkSquatter:
		// Bulk actors run mail on nearly everything (Section 5.2: "Most of
		// the registrants that operate a large number of typosquatting
		// domains have SMTP servers active on most of their domains").
		switch {
		case r < 0.80:
			info.MX = []string{owner.MailHost}
			info.Support = SupportTLSOK
			info.Behavior = BehaviorAccept
		case r < 0.90:
			info.MX = []string{owner.MailHost}
			info.Support = SupportTLSErrors
			// A minority of bulk mail hosts reject unknown recipients —
			// the paper's 1,160 bounces among private registrations.
			info.Behavior = behaviorAcceptOr(rng, BehaviorBounce, 0.5)
		default:
			info.HasA = true
			info.Support = SupportNoInfo
			info.Behavior = BehaviorTimeout
		}
	case KindParker:
		switch {
		case r < 0.35:
			info.MX = []string{owner.MailHost}
			info.Support = SupportTLSErrors
			info.Behavior = BehaviorBounce
		case r < 0.55:
			info.HasA = true
			info.Support = SupportNoEmail
			info.Behavior = BehaviorNetError
		default:
			info.HasA = true
			info.Support = SupportNoInfo
			info.Behavior = BehaviorTimeout
		}
	case KindDefensive:
		info.MX = []string{owner.MailHost}
		info.Support = SupportTLSOK
		info.Behavior = BehaviorBounce // real providers reject unknown users
	default: // small squatters and legit businesses
		switch {
		case r < 0.25:
			info.Support = SupportNoRecords
			info.Behavior = BehaviorNetError
		case r < 0.60:
			info.HasA = true
			info.Support = SupportNoInfo
			info.Behavior = BehaviorTimeout
		case r < 0.72:
			info.HasA = true
			info.Support = SupportNoEmail
			info.Behavior = BehaviorNetError
		case r < 0.73:
			info.MX = []string{nonEmpty(owner.MailHost, "mx."+typo.Domain)}
			info.Support = SupportPlain
			info.Behavior = BehaviorAccept
		case r < 0.85:
			info.MX = []string{nonEmpty(owner.MailHost, "mx."+typo.Domain)}
			info.Support = SupportTLSErrors
			info.Behavior = behaviorAcceptOr(rng, BehaviorOther, 0.85)
		default:
			info.MX = []string{nonEmpty(owner.MailHost, "google.com")}
			info.Support = SupportTLSOK
			info.Behavior = BehaviorAccept
		}
	}
	// The rare human reader (Section 7.2: ~22 opens across tens of
	// thousands of probed domains). Legit businesses read their own mail.
	switch owner.Kind {
	case KindLegitBusiness:
		info.ReadsMail = info.Behavior == BehaviorAccept && rng.Float64() < 0.02
	default:
		info.ReadsMail = info.Behavior == BehaviorAccept && rng.Float64() < 0.0012
	}
	return info
}

func behaviorAcceptOr(rng *rand.Rand, alt ProbeBehavior, pAccept float64) ProbeBehavior {
	if rng.Float64() < pAccept {
		return BehaviorAccept
	}
	return alt
}

// assignNameServers builds the zone-file view: typo domains sit on their
// owner's NS; benign universe domains scatter across generic hosters, a
// few of which also host typo domains (diluting their ratio to the
// paper's ~4% baseline).
func (e *Ecosystem) assignNameServers(rng *rand.Rand) {
	for name, info := range e.Domains {
		ns := info.Registrant.NameServer
		e.NameServerDomains[ns] = append(e.NameServerDomains[ns], name)
	}
	for _, d := range e.Universe.All() {
		if _, isTypo := e.Domains[d.Name]; isTypo {
			continue
		}
		ns := fmt.Sprintf("ns1.hoster%d.example", rng.Intn(40))
		e.NameServerDomains[ns] = append(e.NameServerDomains[ns], d.Name)
	}
	for ns := range e.NameServerDomains {
		sort.Strings(e.NameServerDomains[ns])
	}
}

// ---------------------------------------------------------------------
// Views the experiments consume

// Registered implements typogen.Registry.
func (e *Ecosystem) Registered(domain string) bool {
	if _, ok := e.Domains[domain]; ok {
		return true
	}
	_, ok := e.Universe.Lookup(domain)
	return ok
}

// Ctypos returns every registered typo domain.
func (e *Ecosystem) Ctypos() []*DomainInfo {
	out := make([]*DomainInfo, 0, len(e.Domains))
	for _, d := range e.Domains {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// TyposquattingDomains filters Ctypos by the taxonomy.
func (e *Ecosystem) TyposquattingDomains() []*DomainInfo {
	var out []*DomainInfo
	for _, d := range e.Ctypos() {
		if d.IsTyposquatting() {
			out = append(out, d)
		}
	}
	return out
}

// WhoisRecords materializes per-domain WHOIS records for clustering.
func (e *Ecosystem) WhoisRecords() []whois.Record {
	var out []whois.Record
	for _, d := range e.Ctypos() {
		rec := d.Registrant.Record
		rec.Domain = d.Name
		rec.Private = d.Registrant.Private
		rec.NameServers = []string{d.Registrant.NameServer}
		out = append(out, rec)
	}
	return out
}

// WhoisDirectory exposes the ecosystem over the WHOIS protocol.
func (e *Ecosystem) WhoisDirectory() whois.MapDirectory {
	dir := make(whois.MapDirectory, len(e.Domains))
	for _, rec := range e.WhoisRecords() {
		dir[rec.Domain] = rec
	}
	return dir
}

// NameServerTypoRatio returns, per name server, the fraction of its
// domains that are candidate typos — Section 5.2's cesspool metric.
func (e *Ecosystem) NameServerTypoRatio() map[string]float64 {
	out := make(map[string]float64, len(e.NameServerDomains))
	for ns, domains := range e.NameServerDomains {
		typos := 0
		for _, d := range domains {
			if _, ok := e.Domains[d]; ok {
				typos++
			}
		}
		out[ns] = float64(typos) / float64(len(domains))
	}
	return out
}

func kindShort(k RegistrantKind) string {
	switch k {
	case KindBulkSquatter:
		return "bulk"
	case KindParker:
		return "park"
	case KindDefensive:
		return "brand"
	case KindSmallSquatter:
		return "small"
	default:
		return "biz"
	}
}

func pickRegistrar(rng *rand.Rand) string {
	regs := []string{"CheapNames Inc", "RegisterRight LLC", "DomainDepot", "NameBarn Co", "QuickReg Ltd"}
	return regs[rng.Intn(len(regs))]
}

func titleish(s string) string {
	if s == "" {
		return s
	}
	return strings.ToUpper(s[:1]) + s[1:]
}

func nonEmpty(a, b string) string {
	if a != "" {
		return a
	}
	return b
}
