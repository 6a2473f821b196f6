package core

import (
	"errors"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/distance"
	"repro/internal/dnsserve"
	"repro/internal/dnswire"
	"repro/internal/ecosys"
	"repro/internal/sanitize"
	"repro/internal/stats"
	"repro/internal/vault"
)

func TestDomainReconstruction(t *testing.T) {
	if err := validateDomains(); err != nil {
		t.Fatal(err)
	}
	// Paper-named flagship domains must be present.
	names := map[string]bool{}
	for _, d := range AllStudyDomains() {
		names[d.Name] = true
	}
	for _, want := range []string{"ohtlook.com", "outlo0k.com", "gmaiql.com", "evrizon.com", "yopail.com", "smtpverizon.net", "mx4hotmail.com"} {
		if !names[want] {
			t.Errorf("study domain %s missing", want)
		}
	}
	// Receiver typos must be DL-1 from their targets.
	for _, d := range ReceiverTypoDomains() {
		if dl := distance.DamerauLevenshtein(distance.SLD(d.Target), distance.SLD(d.Name)); dl != 1 {
			t.Errorf("%s is DL-%d from %s", d.Name, dl, d.Target)
		}
	}
}

// runOnce caches a default study run for the shape tests.
var cachedResult *Result
var cachedStudy *Study

func runStudy(t *testing.T) (*Study, *Result) {
	t.Helper()
	if cachedResult != nil {
		return cachedStudy, cachedResult
	}
	s, err := NewStudy(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	cachedStudy, cachedResult = s, res
	return s, res
}

func TestStudyVolumeShape(t *testing.T) {
	_, res := runStudy(t)
	// Section 4.4.1's gross shape: ~10^8 total yearly, SMTP candidates an
	// order of magnitude above receiver candidates, survivors a few
	// thousand.
	if res.TotalYearly < 2e7 || res.TotalYearly > 6e8 {
		t.Errorf("TotalYearly = %.3g, paper: 1.19e8", res.TotalYearly)
	}
	if res.SMTPCandidateYearly < 2*res.ReceiverCandidateYearly {
		t.Errorf("SMTP candidates %.3g not >> receiver candidates %.3g",
			res.SMTPCandidateYearly, res.ReceiverCandidateYearly)
	}
	if res.SurvivorsYearly < 500 || res.SurvivorsYearly > 60000 {
		t.Errorf("survivors = %.0f/yr, paper: ~6-7k", res.SurvivorsYearly)
	}
	// Spam dominates by orders of magnitude.
	if res.SurvivorsYearly > res.TotalYearly/1000 {
		t.Errorf("survivors %.3g not a vanishing share of %.3g", res.SurvivorsYearly, res.TotalYearly)
	}
	// Receiver typos dwarf SMTP typos (paper: order of magnitude).
	if res.TrueReceiverYearly < 3*res.SMTPTypoYearlyLow {
		t.Errorf("receiver %.0f vs SMTP low %.0f: missing the order-of-magnitude gap",
			res.TrueReceiverYearly, res.SMTPTypoYearlyLow)
	}
	// The SMTP bracket is a proper range (paper: 415..5,970).
	if res.SMTPTypoYearlyHigh < res.SMTPTypoYearlyLow {
		t.Errorf("SMTP bracket inverted: [%f, %f]", res.SMTPTypoYearlyLow, res.SMTPTypoYearlyHigh)
	}
}

func TestStudyFigure5Concentration(t *testing.T) {
	_, res := runStudy(t)
	var counts []float64
	for _, d := range ReceiverTypoDomains() {
		counts = append(counts, res.PerDomain[d.Name].ReceiverYearly)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(counts)))
	var total float64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		t.Fatal("no receiver typos at all")
	}
	// Paper: 2 domains receive the majority, 12 receive 99%.
	if k := stats.TopShareCount(counts, 0.5); k > 6 {
		t.Errorf("majority needs %d domains, paper: 2", k)
	}
	if k := stats.TopShareCount(counts, 0.99); k > 20 {
		t.Errorf("99%% needs %d domains, paper: 12", k)
	}
}

func TestStudyDailySeriesShape(t *testing.T) {
	_, res := runStudy(t)
	// Outage spans must be empty across every series.
	for _, o := range DefaultConfig().Outages {
		for day := o[0]; day < o[1]; day++ {
			sum := res.ReceiverSpamDaily.Counts[day] + res.ReceiverTrueDaily.Counts[day] +
				res.SMTPSpamDaily.Counts[day] + res.SMTPTrueDaily.Counts[day]
			if sum != 0 {
				t.Fatalf("day %d inside outage has %v emails", day, sum)
			}
		}
	}
	// Receiver typos arrive near-constantly: most non-outage days nonzero.
	nonzero := 0
	for day, c := range res.ReceiverTrueDaily.Counts {
		if inAnyOutage(day) {
			continue
		}
		if c > 0 {
			nonzero++
		}
	}
	if nonzero < res.Days/2 {
		t.Errorf("receiver typos on only %d days", nonzero)
	}
	// SMTP typos are sparse and bursty: strictly fewer active days.
	smtpDays := 0
	for day, c := range res.SMTPTrueDaily.Counts {
		if !inAnyOutage(day) && c > 0 {
			smtpDays++
		}
	}
	if smtpDays >= nonzero {
		t.Errorf("SMTP typo days %d >= receiver days %d; should be sparser", smtpDays, nonzero)
	}
}

func inAnyOutage(day int) bool {
	for _, o := range DefaultConfig().Outages {
		if day >= o[0] && day < o[1] {
			return true
		}
	}
	return false
}

func TestStudySensitiveHeatmap(t *testing.T) {
	_, res := runStudy(t)
	if len(res.SensitiveHeatmap) == 0 {
		t.Fatal("no sensitive info observed")
	}
	// yopail.com should collect usernames/passwords (Figure 6).
	yop := res.SensitiveHeatmap["yopail.com"]
	if yop == nil || (yop["username"] == 0 && yop["password"] == 0) {
		t.Errorf("yopail.com heatmap = %v, want credentials", yop)
	}
	// Heatmap labels exclude the swamping kinds.
	for dom, m := range res.SensitiveHeatmap {
		for label := range m {
			if label == "email" || label == "date" || label == "phone" {
				t.Errorf("%s heatmap includes %q", dom, label)
			}
		}
	}
}

func TestStudyAttachments(t *testing.T) {
	_, res := runStudy(t)
	if len(res.AttachmentExts) < 4 {
		t.Fatalf("attachment extensions = %v", res.AttachmentExts)
	}
	// txt dominates (Figure 7), and no zip/rar survive to true typos.
	max, maxExt := 0, ""
	for ext, n := range res.AttachmentExts {
		if n > max {
			max, maxExt = n, ext
		}
		if ext == "zip" || ext == "rar" {
			t.Errorf("forbidden archive %s among true typos", ext)
		}
	}
	if maxExt != "txt" {
		t.Errorf("dominant extension = %q, paper: txt", maxExt)
	}
}

func TestStudySMTPPersistence(t *testing.T) {
	_, res := runStudy(t)
	if len(res.SMTPPersistence) == 0 {
		t.Skip("no SMTP episodes sampled in this run")
	}
	zero := 0
	for _, p := range res.SMTPPersistence {
		if p == 0 {
			zero++
		}
		if p > 209 {
			t.Errorf("persistence %f beyond the paper's max", p)
		}
	}
	if f := float64(zero) / float64(len(res.SMTPPersistence)); f < 0.5 {
		t.Errorf("single-email episodes = %.2f, paper: 0.70", f)
	}
}

func TestStudyVaultPopulated(t *testing.T) {
	s, res := runStudy(t)
	if res.VaultRecords == 0 {
		t.Fatal("no sensitive emails vaulted")
	}
	if s.Vault.Len() != res.VaultRecords {
		t.Errorf("vault len %d != recorded %d", s.Vault.Len(), res.VaultRecords)
	}
	// Stored plaintext is sanitized: digits zeroed outside tokens.
	meta := s.Vault.Meta()
	pt, _, err := s.Vault.Get(meta[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	_ = pt
}

func TestProjection(t *testing.T) {
	s, res := runStudy(t)
	eco := ecosys.Generate(ecosys.DefaultConfig())
	proj, err := Project(res, s.Universe, eco)
	if err != nil {
		t.Fatal(err)
	}
	if proj.DomainCount < 50 {
		t.Errorf("projection covers %d domains, want a sizable set (paper: 1,211)", proj.DomainCount)
	}
	if proj.Model.R2 < 0.3 || proj.Model.R2 > 1 {
		t.Errorf("R2 = %.2f, paper: 0.74", proj.Model.R2)
	}
	if proj.LOOCVR2 >= proj.Model.R2 {
		t.Errorf("LOOCV R2 %.2f >= in-sample %.2f", proj.LOOCVR2, proj.Model.R2)
	}
	if proj.Total.Mean <= 0 {
		t.Fatalf("projected total = %v", proj.Total)
	}
	if !(proj.Total.Low <= proj.Total.Mean && proj.Total.Mean <= proj.Total.High) {
		t.Errorf("interval disordered: %v", proj.Total)
	}
	// The mistake-mix correction raises the total (deletion/transposition
	// dominate the registered population).
	if proj.Corrected.Mean <= proj.Total.Mean {
		t.Errorf("corrected %.0f <= raw %.0f; paper: 846k > 260k", proj.Corrected.Mean, proj.Total.Mean)
	}
	// Figure 9 ordering.
	mp := proj.MistakePopularity
	if mp[distance.OpDeletion].Mean <= mp[distance.OpSubstitution].Mean {
		t.Errorf("deletion popularity %.3g <= substitution %.3g", mp[distance.OpDeletion].Mean, mp[distance.OpSubstitution].Mean)
	}
	if mp[distance.OpTransposition].Mean <= mp[distance.OpAddition].Mean {
		t.Errorf("transposition popularity %.3g <= addition %.3g", mp[distance.OpTransposition].Mean, mp[distance.OpAddition].Mean)
	}
	if FormatProjection(proj) == "" {
		t.Error("empty projection report")
	}
}

func TestEconomics(t *testing.T) {
	_, res := runStudy(t)
	all := CostPerEmail(76, res.SurvivorsYearly)
	if all <= 0 {
		t.Fatalf("cost = %v", all)
	}
	// Paper: under two cents per email overall; top five domains under a
	// penny.
	if all > 0.5 {
		t.Errorf("cost/email = $%.3f, paper: < $0.02", all)
	}
	top5 := TopDomainsCost(res, 5)
	if top5 >= all {
		t.Errorf("top-5 cost $%.4f should beat overall $%.4f", top5, all)
	}
	if top5 > 0.05 {
		t.Errorf("top-5 cost/email = $%.4f, paper: < $0.01", top5)
	}
}

func TestSurrender(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Days = 30 // short run: we only need some vaulted records
	s, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// Find a domain with vaulted records.
	perDomain := map[string]int{}
	for _, rec := range s.Vault.Meta() {
		perDomain[rec.Domain]++
	}
	var target string
	for d, n := range perDomain {
		if n > 0 {
			target = d
			break
		}
	}
	if target == "" {
		t.Skip("no vaulted records in short run")
	}
	zones := dnsserve.NewStore()
	zones.Put(dnsserve.TypoZone(target, dnswire.IPv4(127, 0, 0, 1)))
	before := len(s.Domains)
	destroyed, err := s.Surrender(target, zones)
	if err != nil {
		t.Fatal(err)
	}
	if destroyed != perDomain[target] {
		t.Errorf("destroyed %d records, want %d", destroyed, perDomain[target])
	}
	if len(s.Domains) != before-1 {
		t.Errorf("domains = %d, want %d", len(s.Domains), before-1)
	}
	if _, ok := zones.Find(target); ok {
		t.Error("zone survived surrender")
	}
	for _, rec := range s.Vault.Meta() {
		if rec.Domain == target {
			t.Fatal("vault record survived surrender")
		}
	}
	if _, err := s.Surrender("never-registered.example", nil); err == nil {
		t.Error("surrendering an unknown domain should fail")
	}
}

// failingPutStore is a vault.Store whose failAt-th Put fails with err
// (failAt 0 never fails); it records the domain of the failed Put.
type failingPutStore struct {
	vault.Store
	failAt, puts int
	err          error
	failedDomain string
}

func (f *failingPutStore) Put(domain, verdict string, received time.Time, plaintext []byte) (uint64, error) {
	f.puts++
	if f.puts == f.failAt {
		f.failedDomain = domain
		return 0, f.err
	}
	return f.Store.Put(domain, verdict, received, plaintext)
}

// TestRunReturnsVaultPutError checks that a failed vault write stops the
// run with an error naming the domain, instead of dropping the evidence
// and returning a result; and that on success every vaulted record is
// counted.
func TestRunReturnsVaultPutError(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Days = 30
	injected := errors.New("injected vault write failure")
	for _, failAt := range []int{0, 1, 3} {
		s, err := NewStudy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		store := &failingPutStore{Store: s.Vault, failAt: failAt, err: injected}
		s.Vault = store
		res, err := s.Run()
		if failAt == 0 {
			if err != nil {
				t.Fatal(err)
			}
			if store.puts < 3 {
				t.Fatalf("run made %d vault writes; the failure cases need at least 3", store.puts)
			}
			if res.VaultRecords != store.Len() {
				t.Errorf("VaultRecords = %d, store holds %d", res.VaultRecords, store.Len())
			}
			continue
		}
		if !errors.Is(err, injected) {
			t.Fatalf("Put %d failed: Run returned %v, want the injected error", failAt, err)
		}
		if !strings.Contains(err.Error(), store.failedDomain) {
			t.Errorf("Put %d failed: error %q does not name the domain %s", failAt, err, store.failedDomain)
		}
		if res != nil {
			t.Errorf("Put %d failed: Run returned a result alongside its error", failAt)
		}
	}
}

func TestStudyDeterministic(t *testing.T) {
	run := func() *Result {
		cfg := DefaultConfig()
		cfg.Days = 25
		s, err := NewStudy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.TotalYearly != b.TotalYearly || a.SurvivorsYearly != b.SurvivorsYearly {
		t.Errorf("runs differ: %v/%v vs %v/%v", a.TotalYearly, a.SurvivorsYearly, b.TotalYearly, b.SurvivorsYearly)
	}
	for name, sa := range a.PerDomain {
		sb := b.PerDomain[name]
		if sa.ReceiverYearly != sb.ReceiverYearly || sa.SpamYearly != sb.SpamYearly {
			t.Fatalf("domain %s differs across identical seeds", name)
		}
	}
	for i := range a.ReceiverTrueDaily.Counts {
		if a.ReceiverTrueDaily.Counts[i] != b.ReceiverTrueDaily.Counts[i] {
			t.Fatalf("daily series differs at day %d", i)
		}
	}
}

// TestVaultContentsSanitized decrypts every stored record and verifies
// the sanitizer's guarantee: no detectable sensitive identifier (other
// than the always-benign kinds) survives into storage, and all digits
// outside redaction tokens are zeroed.
func TestVaultContentsSanitized(t *testing.T) {
	s, _ := runStudy(t)
	checked := 0
	for _, rec := range s.Vault.Meta() {
		pt, _, err := s.Vault.Get(rec.ID)
		if err != nil {
			t.Fatalf("record %d: %v", rec.ID, err)
		}
		checked++
		for _, f := range sanitize.Scan(string(pt)) {
			switch f.Kind {
			case sanitize.KindDate, sanitize.KindEmail, sanitize.KindZip, sanitize.KindPhone:
				// Zeroed digits can still look like 000-000-0000; the high
				// value identifiers are what must never survive.
				continue
			case sanitize.KindIDNumber, sanitize.KindUsername, sanitize.KindPassword:
				// Keyword detectors may re-fire on the redaction token tail;
				// acceptable as long as the match is all zeroes or a token.
				if strings.Contains(f.Match, "*_|R|_*") || allZeroDigits(f.Match) {
					continue
				}
				t.Errorf("record %d: %s %q survived sanitization", rec.ID, f.Kind, f.Match)
			default:
				if !allZeroDigits(f.Match) {
					t.Errorf("record %d: %s %q survived sanitization", rec.ID, f.Kind, f.Match)
				}
			}
		}
		if checked >= 200 {
			break // sample is plenty
		}
	}
	if checked == 0 {
		t.Fatal("no vault records to check")
	}
}

func allZeroDigits(s string) bool {
	for _, r := range s {
		if r >= '1' && r <= '9' {
			return false
		}
	}
	return true
}

func TestSampleCountProportional(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Expectation of sampleCount(v, d) must be v/d even when v < d.
	const divisor = 4000
	for _, volume := range []int{0, 100, 3999, 4000, 9000} {
		total := 0
		const trials = 20000
		for i := 0; i < trials; i++ {
			total += sampleCount(rng, volume, divisor)
		}
		got := float64(total) / trials
		want := float64(volume) / divisor
		if got < want*0.9-0.01 || got > want*1.1+0.01 {
			t.Errorf("sampleCount(%d) mean = %.4f, want %.4f", volume, got, want)
		}
	}
}

func TestAuditPrecision(t *testing.T) {
	// Section 4.3: manual analysis found ~80% of funnel survivors were
	// real typo email. Our ground truth yields the same number exactly.
	_, res := runStudy(t)
	if res.AuditPrecision < 0.6 || res.AuditPrecision > 0.99 {
		t.Errorf("audit precision = %.2f, paper: 0.80", res.AuditPrecision)
	}
	if got := res.CorrectedSurvivorsYearly + res.ContaminationYearly; got != res.SurvivorsYearly {
		t.Errorf("survivor decomposition broken: %v + %v != %v",
			res.CorrectedSurvivorsYearly, res.ContaminationYearly, res.SurvivorsYearly)
	}
}
