package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// goldenFullRun is the sha256 of the default-seed, full-window run
// (resultString plus every vault record's ID, domain, verdict, received
// instant and plaintext). Run and the test oracle must both reproduce
// it: a change to generation that alters any spam sample, typo email or
// vault record moves this hash even when it moves both alike, which the
// equivalence tests against the oracle cannot see.
const goldenFullRun = "f5fc213576506279fef7b3a1ccdb4938822994716f3a2a0ea47fddb87579e373"

// runDigest hashes the observable output of one study run made with
// run: (*Study).Run or the test oracle (*Study).runOracle.
func runDigest(t *testing.T, cfg Config, run func(*Study) (*Result, error)) string {
	t.Helper()
	s, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Vault.Close()
	res, err := run(s)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	h.Write([]byte(resultString(res)))
	for _, m := range s.Vault.Meta() {
		plain, rec, err := s.Vault.Get(m.ID)
		if err != nil {
			t.Fatalf("vault record %d: %v", m.ID, err)
		}
		fmt.Fprintf(h, "rec %d %s %s %d %d\n", rec.ID, rec.Domain, rec.Verdict,
			rec.Received.UnixNano(), len(plain))
		h.Write(plain)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenFullRun pins the default-seed, 225-day collection to one
// recorded digest, both from the test oracle and from Run over the
// on-disk vault with a spilling pending queue and survivor log.
func TestGoldenFullRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full 225-day run")
	}
	cfg := DefaultConfig()

	scfg := cfg
	scfg.VaultDir = t.TempDir()
	scfg.SpillDir = t.TempDir()
	scfg.SpillBudgetBytes = 1 << 20

	for _, tc := range []struct {
		name string
		cfg  Config
		run  func(*Study) (*Result, error)
	}{{"oracle", cfg, (*Study).runOracle}, {"run-logvault-spill", scfg, (*Study).Run}} {
		if got := runDigest(t, tc.cfg, tc.run); got != goldenFullRun {
			t.Errorf("%s: digest %s, want %s", tc.name, got, goldenFullRun)
		}
	}
}

// TestFullRunMatchesOracle checks Run against the test oracle over the
// full window at two more seeds (the default seed is the golden's), by
// runDigest: the result and every vault record. The experiment suite is
// a pure function of the study, its Result, its vault and the
// ecosystem, so this covers every table and figure it renders.
func TestFullRunMatchesOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("full 225-day runs")
	}
	for _, seed := range []int64{9, 101} {
		cfg := DefaultConfig()
		cfg.Seed = seed
		got, want := runDigest(t, cfg, (*Study).Run), runDigest(t, cfg, (*Study).runOracle)
		if got != want {
			t.Errorf("seed %d: Run digest %s, oracle %s", seed, got, want)
		}
	}
}
