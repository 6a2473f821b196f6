//go:build sweep

package experiments

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"testing"
)

// sweepSeeds are seeds 1–31 plus the study's default seed.
func sweepSeeds() []int64 {
	seeds := make([]int64, 0, 32)
	for s := int64(1); s <= 31; s++ {
		seeds = append(seeds, s)
	}
	return append(seeds, 20160604)
}

// sweepTable is the header line of EXPERIMENTS.md's seed-sweep table.
// Its Floor column holds each check's recorded "passing/run" seeds.
const sweepTable = "| Check | Floor |"

// TestShapeChecksAcrossSeeds runs every experiment's shape checks at 32
// seeds and prints each check's pass count. It fails only where a check
// passes at fewer seeds than the Floor recorded in EXPERIMENTS.md, or a
// check has no recorded floor. Run it with `make sweep`; at ~75 s on
// two cores it is too slow for `go test ./...`.
func TestShapeChecksAcrossSeeds(t *testing.T) {
	floors := readSweepFloors(t, "../../EXPERIMENTS.md")

	var order []string
	pass, runs := map[string]int{}, map[string]int{}
	failedAt := map[string][]string{}
	for _, seed := range sweepSeeds() {
		exps, err := NewSuite(seed).All()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, e := range exps {
			for _, c := range e.Checks {
				key := e.ID + " / " + c.Name
				if runs[key] == 0 {
					order = append(order, key)
				}
				runs[key]++
				if c.OK {
					pass[key]++
				} else {
					failedAt[key] = append(failedAt[key], fmt.Sprintf("%d (%s)", seed, c.Measured))
				}
			}
		}
	}

	total, passed := 0, 0
	for _, key := range order {
		total += runs[key]
		passed += pass[key]
		t.Logf("| %s | %d/%d | %s |", key, pass[key], runs[key], strings.Join(failedAt[key], ", "))
	}
	t.Logf("%d of %d checks pass", passed, total)

	for _, key := range order {
		floor, ok := floors[key]
		switch {
		case !ok:
			t.Errorf("%s: no Floor recorded in EXPERIMENTS.md", key)
		case pass[key] < floor:
			t.Errorf("%s: passes at %d/%d seeds, below the recorded floor of %d", key, pass[key], runs[key], floor)
		}
	}
}

// readSweepFloors parses the Floor column ("passing/run") of the
// seed-sweep table in EXPERIMENTS.md, keyed by its Check column.
func readSweepFloors(t *testing.T, path string) map[string]int {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	floors := map[string]int{}
	in := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, sweepTable) {
			in = true
			continue
		}
		if !in || strings.HasPrefix(line, "|---") {
			continue
		}
		if !strings.HasPrefix(line, "|") {
			break
		}
		cells := strings.Split(line, "|")
		if len(cells) < 3 {
			t.Fatalf("malformed sweep row %q", line)
		}
		var got, of int
		if _, err := fmt.Sscanf(strings.TrimSpace(cells[2]), "%d/%d", &got, &of); err != nil {
			t.Fatalf("sweep row %q: Floor %q: %v", line, cells[2], err)
		}
		floors[strings.TrimSpace(cells[1])] = got
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(floors) == 0 {
		t.Fatalf("%s has no %q table", path, sweepTable)
	}
	return floors
}
