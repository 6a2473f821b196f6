package ecosys

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/par"
)

// snapshotString renders every field of the ecosystem that any consumer
// reads, in a stable order, with floats printed in full hex precision —
// byte equality of two snapshots means the ecosystems are
// indistinguishable to every experiment.
func snapshotString(e *Ecosystem) string {
	var sb strings.Builder
	for _, d := range e.Ctypos() {
		fmt.Fprintf(&sb, "dom %s target=%s op=%v pos? vis=%x reg=%d mx=%v hasA=%v sup=%d beh=%d reads=%v traffic=%x\n",
			d.Name, d.Target, d.Op, d.Visual, d.Registrant.ID, d.MX, d.HasA, d.Support, d.Behavior, d.ReadsMail, d.Traffic)
	}
	for _, r := range e.Registrants {
		fmt.Fprintf(&sb, "reg %d kind=%v private=%v mail=%s ns=%s org=%q created=%s domains=%v\n",
			r.ID, r.Kind, r.Private, r.MailHost, r.NameServer, r.Record.Organization, r.Record.Created, r.Domains)
	}
	nss := make([]string, 0, len(e.NameServerDomains))
	for ns := range e.NameServerDomains {
		nss = append(nss, ns)
	}
	sort.Strings(nss)
	for _, ns := range nss {
		fmt.Fprintf(&sb, "ns %s %v\n", ns, e.NameServerDomains[ns])
	}
	return sb.String()
}

// TestGenerateSeedEquivalence asserts the determinism-under-parallelism
// contract: for several seeds, the parallel ecosystem is byte-identical
// to the sequential (Workers=1) one at every worker count tried.
func TestGenerateSeedEquivalence(t *testing.T) {
	defer par.SetWorkers(0)
	for _, seed := range []int64{1, 42, 20161105} {
		cfg := smallConfig()
		cfg.Seed = seed

		par.SetWorkers(1)
		ref := snapshotString(Generate(cfg))

		for _, w := range []int{2, 4, 16} {
			par.SetWorkers(w)
			if got := snapshotString(Generate(cfg)); got != ref {
				t.Fatalf("seed %d: workers=%d snapshot differs from sequential run\n(first divergence near %q)",
					seed, w, firstDiff(ref, got))
			}
		}
	}
}

func firstDiff(a, b string) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo := i - 40
			if lo < 0 {
				lo = 0
			}
			hi := i + 40
			if hi > n {
				hi = n
			}
			return a[lo:hi]
		}
	}
	return "length mismatch"
}
