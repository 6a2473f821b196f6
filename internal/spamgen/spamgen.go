// Package spamgen models the spam flood that dominated the study's
// collection: the paper's infrastructure received ~119M emails/year, of
// which all but a few thousand were spam. Simulating every message is
// pointless; instead the generator produces per-day aggregate counts
// from a campaign process (DESIGN.md §5), and materializes a
// deterministic sample of individual messages so the filtering funnel's
// stage rates can be measured on real inputs and applied to the
// aggregates.
//
// Two spam populations differ by an order of magnitude, matching
// Section 4.4.1: mail addressed *to* the typo domains (receiver-typo
// candidates, 16.2M/yr) and mail hitting the servers as attempted relay
// or blind delivery to third parties (SMTP-typo candidates, 102.7M/yr).
package spamgen

import (
	"math"
	"math/rand"

	"repro/internal/corpus"
	"repro/internal/mailmsg"
	"repro/internal/par"
	"repro/internal/reputation"
	"repro/internal/spamfilter"
	"repro/internal/users"
)

// Params tunes the arrival process.
type Params struct {
	// BaseDaily is the mean spam/day for a freshly registered typo domain
	// addressed directly to it.
	BaseDaily float64
	// SMTPRelayFactor scales the third-party-addressed flood hitting the
	// SMTP trap domains (the paper's 102.7M vs 16.2M split ≈ 6.3x).
	SMTPRelayFactor float64
	// DiscoveryDays is the time constant of spammers discovering a new
	// catch-all (volumes ramp up as harvesters notice it).
	DiscoveryDays float64
	// Burstiness is the lognormal sigma of day-to-day volume.
	Burstiness float64
}

// DefaultParams matches the paper's aggregate volumes at 76 domains over
// 225 days (~119M/yr total).
func DefaultParams() Params {
	return Params{
		BaseDaily:       2000,
		SMTPRelayFactor: 8,
		DiscoveryDays:   30,
		Burstiness:      0.5,
	}
}

// Generator produces aggregate day counts and sample messages.
type Generator struct {
	P   Params
	rng *rand.Rand
	rep *reputation.DB
}

// New creates a Generator with its own deterministic stream.
func New(p Params, seed int64) *Generator {
	return &Generator{P: p, rng: par.Rand(seed, 0)}
}

// SetReputationDB attaches a hash-reputation feed: the generator submits
// its malicious payloads (ZIP/RAR droppers) to it the way AV vendors
// populate VirusTotal, enabling the Section 4.4.3 sweep.
func (g *Generator) SetReputationDB(db *reputation.DB) { g.rep = db }

// DayVolume returns the spam count arriving at one domain on day d
// (0-based since its registration). attractiveness scales with the
// target's popularity; smtpTrap selects the relay-flood population.
func (g *Generator) DayVolume(day int, attractiveness float64, smtpTrap bool) int {
	ramp := 1 - math.Exp(-float64(day+1)/g.P.DiscoveryDays)
	mean := g.P.BaseDaily * attractiveness * ramp
	if smtpTrap {
		mean *= g.P.SMTPRelayFactor
	}
	noise := math.Exp(g.rng.NormFloat64() * g.P.Burstiness)
	return poisson(g.rng, mean*noise)
}

// Materialize builds n sample spam emails bound for ourDomain, as they
// would arrive on the wire: campaign-correlated content, spoofed
// senders, occasionally spoofing the destination domain itself (the
// Layer 1 tell). For SMTP traps the recipients are third parties.
func (g *Generator) Materialize(n int, ourDomain string, smtpTrap bool) []*spamfilter.Email {
	out := make([]*spamfilter.Email, 0, n)
	spoofed := "admin@" + ourDomain
	for i := 0; i < n; i++ {
		// Campaigns are drawn from a fixed global pool: real campaigns
		// repeat the same body far past Layer 5's content threshold, which
		// is how evasive (low-score) campaigns still get filtered. The pool
		// must not scale with the batch size, or single-message batches
		// would all collapse onto campaign zero.
		campaign := g.rng.Intn(400)
		msg := corpus.CampaignMessage(g.rng, campaign, 0.25)
		rcpt := users.RandomLocalPart(g.rng) + "@" + ourDomain
		if smtpTrap {
			rcpt = users.RandomLocalPart(g.rng) + "@" +
				[]string{"gmail.com", "yahoo.com", "corp.example"}[g.rng.Intn(3)]
		}
		msg.SetHeader("To", rcpt)
		sender := mailmsg.Addr(msg.From())
		if g.rng.Float64() < 0.08 {
			// Spammers posing as the destination domain (Layer 1 catches it).
			sender = spoofed
			msg.SetHeader("From", sender)
		}
		if g.rep != nil {
			for _, a := range msg.Attachments {
				switch a.Ext() {
				case "zip", "rar":
					g.rep.Submit(a.Data, reputation.VerdictMalicious)
				default:
					if g.rng.Float64() < 0.05 { // a few widely-shared benign files
						g.rep.Submit(a.Data, reputation.VerdictBenign)
					}
				}
			}
		}
		out = append(out, &spamfilter.Email{
			Msg:            msg,
			ServerDomain:   ourDomain,
			RcptAddr:       rcpt,
			SenderAddr:     sender,
			SMTPTypoDomain: smtpTrap,
		})
	}
	return out
}

// poisson samples a Poisson variate; for large means it uses the normal
// approximation (exact shape is irrelevant at 10^5/day).
func poisson(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 50 {
		v := mean + math.Sqrt(mean)*rng.NormFloat64()
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Poisson exposes the sampler for other generators.
func Poisson(rng *rand.Rand, mean float64) int { return poisson(rng, mean) }
