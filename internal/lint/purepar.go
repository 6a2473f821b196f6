package lint

import (
	"go/ast"

	"repro/internal/lint/cfg"
)

// PureParAnalyzer statically proves the determinism contract's shard
// clauses (DESIGN §9): any function value reaching par.Map, par.MapAt,
// par.MapErr or par.For must be byte-identical to a sequential run, so its
// inferred effect summary must be free of
//
//   - ReadsClock    — wall-clock observations differ per run; shards
//     take time from simclock or a passed-in timestamp;
//   - AmbientRand   — process-global randomness is schedule-dependent;
//     shards draw only from their rng argument (par.Rand(seed, index));
//   - GlobalWrite   — unsynchronized package-level writes race across
//     workers;
//   - MapRangeOrder — map-iteration order reaching an order-sensitive
//     accumulation makes shard output nondeterministic on its own.
//
// The finding message carries the interprocedural blame chain
// (shardFn → corpus.Sample → time.Now); `repolint -why` adds file:line
// per hop. Blocking effects are allowed — par.Map's own machinery
// blocks by design — and calls through opaque function values inside a
// shard are the inference's documented hole.
var PureParAnalyzer = &Analyzer{
	Name: "purepar",
	Doc:  "function values reaching par.Map/MapAt/MapErr/For must carry no clock, ambient-rand, global-write or map-order effects",
	Run:  runPurePar,
}

// parShardArgs maps each par entry point that fans a function value
// out to its workers to its argument count; the function is the last.
var parShardArgs = map[string]int{"Map": 3, "MapErr": 3, "MapAt": 4, "For": 2}

// pureParForbidden is the set of effects a parallel shard must not
// carry (DESIGN §9 clauses 1–3).
var pureParForbidden = cfg.EffectSet(cfg.ReadsClock | cfg.AmbientRand | cfg.GlobalWrite | cfg.MapRangeOrder)

func runPurePar(pass *Pass) {
	info := pass.Pkg.Info
	parPath := pass.Prog.Module + "/internal/par"
	if pass.Pkg.Path == parPath {
		return // par's own tests exercise the machinery directly
	}
	var st *effectState // built lazily: most packages never touch par
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(info, call)
			if fn == nil || !isPkgPath(fn.Pkg(), parPath) {
				return true
			}
			if parShardArgs[fn.Name()] != len(call.Args) {
				return true
			}
			shard := call.Args[len(call.Args)-1]
			key := resolveFuncValue(info, shard)
			if key == nil {
				return true // opaque function value: the documented hole
			}
			if st == nil {
				st = effectsOf(pass.Prog)
			}
			fi := st.infos[key]
			if fi == nil {
				return true
			}
			for _, e := range fi.set.Intersect(pureParForbidden).Effects() {
				chain, detail := st.describe(fi, e)
				pass.ReportfChain(shard.Pos(), detail,
					"shard function passed to par.%s carries %s (%s); a parallel shard must take randomness from its rng argument, time from simclock, and iterate maps in sorted order",
					fn.Name(), e, chain)
			}
			return true
		})
	}
}
