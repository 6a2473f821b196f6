# Stdlib-only build: no external tools, no network. Every target is a
# plain go invocation so CI and laptops behave identically.

GO ?= go

.PHONY: check build test race vet lint effects bench fuzz chaos clean

# check is the gate for every change: vet, build, the repo's own
# analyzers (cmd/repolint), then the full test suite under the race
# detector.
check: vet build lint race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint runs the twenty-one paper-invariant analyzers over the whole module
# under the committed ratchet baseline: pre-existing findings recorded
# in .repolint-baseline.json are suppressed, anything new fails. Exit 1
# means a new finding, 3 means only a stale waiver, 2 a load failure.
# Every run loads and typechecks the whole module, then analyzes it.
# Regenerate the baseline (after burning down an entry) with
# `go run ./cmd/repolint -write-baseline .repolint-baseline.json ./...`.
lint:
	$(GO) run ./cmd/repolint -baseline .repolint-baseline.json ./...

# effects dumps the inferred L4 effect summary for every function in
# PKG (default: the whole module) — the debugging view behind the
# purepar/lockblock/globalmut analyzers. Lines read
# `pkg.Func: ReadsClock|Blocking{chan}` with "pure" for the empty set.
PKG ?= ./...
effects:
	$(GO) run ./cmd/repolint -format=effects $(PKG)

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench runs every benchmark with allocation counts and parses the
# output (via cmd/benchjson) into a JSON snapshot for diffing against
# the committed baselines (BENCH_<n>.json). The default BENCHTIME=1x
# keeps the multi-second collection-run benches to one iteration;
# raise it (e.g. BENCHTIME=2s) for stable timings.
BENCHTIME ?= 1x
BENCHOUT ?= BENCH.json
bench:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) ./... > bench.out || \
		{ cat bench.out; rm -f bench.out; exit 1; }
	@cat bench.out
	$(GO) run ./cmd/benchjson < bench.out > $(BENCHOUT)
	@rm -f bench.out
	@echo "wrote $(BENCHOUT)"

# fuzz gives each fuzz target a short budget; lengthen FUZZTIME for a
# soak run.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -fuzz=FuzzRedact$$ -fuzztime=$(FUZZTIME) ./internal/sanitize/
	$(GO) test -fuzz=FuzzRedactCorpus -fuzztime=$(FUZZTIME) ./internal/sanitize/
	$(GO) test -fuzz=FuzzGateEquivalence -fuzztime=$(FUZZTIME) ./internal/sanitize/
	$(GO) test -fuzz=FuzzMatchEquivalence -fuzztime=$(FUZZTIME) ./internal/match/
	$(GO) test -fuzz=FuzzCFGBuild -fuzztime=$(FUZZTIME) ./internal/lint/cfg/
	$(GO) test -fuzz=FuzzValueLattice -fuzztime=$(FUZZTIME) ./internal/lint/cfg/
	$(GO) test -fuzz=FuzzEffectLattice -fuzztime=$(FUZZTIME) ./internal/lint/cfg/
	$(GO) test -fuzz=FuzzTypestateLattice -fuzztime=$(FUZZTIME) ./internal/lint/cfg/
	$(GO) test -fuzz=FuzzSMTPDSession -fuzztime=$(FUZZTIME) ./internal/smtpd/

# chaos runs the end-to-end fault-injection soak (chaos_test.go) under
# the race detector once per seed. Every failure is replayable: re-run
# with CHAOS_SEED=<the echoed seed>.
CHAOS_SEEDS ?= 1 20160604 424242
chaos:
	@for seed in $(CHAOS_SEEDS); do \
		echo "chaos soak: CHAOS_SEED=$$seed"; \
		CHAOS_SEED=$$seed $(GO) test -race -count=1 -run 'TestChaosSoak|TestSessionBudgetStopsSlowLoris|TestProbeCtxBudgetStopsSlowLoris' ./... || \
			{ echo "chaos soak FAILED — replay with: CHAOS_SEED=$$seed go test -race -run TestChaosSoak ."; exit 1; }; \
	done

clean:
	$(GO) clean ./...
