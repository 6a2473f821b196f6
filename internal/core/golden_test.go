package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// goldenFullRun is the sha256 of the default-seed, full-window run
// (resultString plus every vault record's ID, domain, verdict, received
// instant and plaintext). Both run modes must reproduce it: a change to
// generation that alters any spam sample, typo email or vault record
// moves this hash even when it moves both modes alike, which the
// cross-mode equivalence tests cannot see.
const goldenFullRun = "f5fc213576506279fef7b3a1ccdb4938822994716f3a2a0ea47fddb87579e373"

// runDigest hashes one full run's observable output.
func runDigest(t *testing.T, cfg Config) string {
	t.Helper()
	s, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Vault.Close()
	res, err := s.Run()
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

// TestGoldenFullRun pins the default-seed, 225-day collection in both
// run modes to one recorded digest.
func TestGoldenFullRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full 225-day run")
	}
	cfg := DefaultConfig()

	scfg := cfg
	scfg.Streaming = true
	scfg.VaultDir = t.TempDir()
	scfg.SpillDir = t.TempDir()
	scfg.SpillBudgetBytes = 1 << 20

	for _, tc := range []struct {
		name string
		cfg  Config
	}{{"materialized", cfg}, {"streaming-logvault-spill", scfg}} {
		if got := runDigest(t, tc.cfg); got != goldenFullRun {
			t.Errorf("%s: digest %s, want %s", tc.name, got, goldenFullRun)
		}
	}
}
