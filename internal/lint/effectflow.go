package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/lint/cfg"
)

// Effect inference: the semantic driver of the cfg package's fourth
// layer (the effect lattice). It assigns every function body in the
// module — declared functions, methods and function literals — a
// summary in cfg.EffectSet, by collecting base effects from the body
// (clock reads, ambient randomness, order-sensitive map ranges,
// unsynchronized package-level writes, channel operations, lock
// acquisitions, filesystem/network/environment access) and then
// propagating callee summaries bottom-up through the call graph to a
// fixpoint. Each effect remembers its origin — the base operation or
// the callee it arrived through — so every finding built on a summary
// can print an interprocedural blame chain
// (shardFn → corpus.Sample → time.Now); `repolint -why` surfaces the
// chain with file:line per hop.
//
// Resolution rules:
//
//   - static calls to module functions propagate the callee summary;
//   - interface method calls on module interfaces are a sound
//     over-approximation: the effects of every module type
//     implementing the interface join into the caller;
//   - calls through opaque function values contribute nothing (the
//     documented hole — purepar closes it for the one place it
//     matters by resolving par.Map arguments itself);
//   - `go` statements contribute nothing to the spawner (the spawned
//     body is its own summary; goleak owns goroutine lifecycle), while
//     deferred calls and IIFEs run on the caller's schedule and do
//     propagate;
//   - seam packages are blessed holes: randomness, clock and sleep
//     effects do not leak out of internal/par (splitmix64 PRNGs are a
//     pure function of seed and index), internal/simclock (the virtual
//     clock IS the determinism seam) or internal/faultnet (injected
//     latency is part of a seeded fault plan).
//
// Classification of writes is deliberately one-sided: a package-level
// write under a lexically-held sync.Mutex, to a sync/atomic-typed
// value's own methods, or inside an init function is synchronized (or
// pre-concurrency) and carries no GlobalWrite; everything else does.

// effectStateKey stores the module-wide effect summaries in
// Program.analyzerState, shared by purepar, lockblock and globalmut.
const effectStateKey = "effects"

// effectOrigin records why a function carries one effect: a base
// operation in its own body (callee == nil, what describes it), or a
// call edge (callee is the summary key the effect arrived from). pos
// is always a position in this function's body.
type effectOrigin struct {
	callee any
	pos    token.Pos
	what   string
}

// effectEdge is one call-graph edge: callee summary key, call site,
// and the seam mask applied when joining the callee's effects.
type effectEdge struct {
	callee any
	pos    token.Pos
	mask   cfg.EffectSet
}

// effectInfo is one function's summary under construction. Keys are
// *types.Func for declared functions and *ast.FuncLit for literals.
type effectInfo struct {
	key    any
	pkg    *Package
	local  string // package-local display name: "Map", "Study.generateUnit", "Map.func1"
	name   string // qualified display name: "par.Map"
	set    cfg.EffectSet
	edges  []effectEdge
	origin map[cfg.Effect]effectOrigin
}

type effectState struct {
	prog       *Program
	infos      map[any]*effectInfo
	order      []*effectInfo // deterministic source order
	namedTypes []*types.Named
	ifaceMemo  map[*types.Func][]*types.Func
}

// effectsOf returns the module-wide effect summaries, building them on
// first use.
func effectsOf(prog *Program) *effectState {
	return prog.analyzerState(effectStateKey, func() any {
		return buildEffects(prog)
	}).(*effectState)
}

func buildEffects(prog *Program) *effectState {
	st := &effectState{
		prog:      prog,
		infos:     make(map[any]*effectInfo),
		ifaceMemo: make(map[*types.Func][]*types.Func),
	}
	st.collectNamedTypes()
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				local := fd.Name.Name
				if fd.Recv != nil && len(fd.Recv.List) > 0 {
					if t := recvTypeName(fd.Recv.List[0].Type); t != "" {
						local = t + "." + fd.Name.Name
					}
				}
				isInit := fd.Recv == nil && fd.Name.Name == "init"
				st.collect(pkg, fn, local, fd.Body, isInit)
			}
		}
	}
	st.fixpoint()
	return st
}

// collectNamedTypes indexes every named type in the module for
// interface method-set resolution, in deterministic (package, name)
// order.
func (st *effectState) collectNamedTypes() {
	for _, pkg := range st.prog.Packages {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok {
				st.namedTypes = append(st.namedTypes, named)
			}
		}
	}
}

// interfaceImpls resolves an interface method to the concrete methods
// of every module type implementing the interface (sound
// over-approximation for dynamic dispatch within the module).
func (st *effectState) interfaceImpls(ifaceFn *types.Func) []*types.Func {
	if out, ok := st.ifaceMemo[ifaceFn]; ok {
		return out
	}
	var out []*types.Func
	sig, _ := ifaceFn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		if iface, ok := sig.Recv().Type().Underlying().(*types.Interface); ok {
			for _, named := range st.namedTypes {
				if types.IsInterface(named) {
					continue
				}
				var impl types.Type = named
				if !types.Implements(named, iface) {
					if p := types.NewPointer(named); types.Implements(p, iface) {
						impl = p
					} else {
						continue
					}
				}
				obj, _, _ := types.LookupFieldOrMethod(impl, true, ifaceFn.Pkg(), ifaceFn.Name())
				if m, ok := obj.(*types.Func); ok {
					out = append(out, m)
				}
			}
		}
	}
	st.ifaceMemo[ifaceFn] = out
	return out
}

// collect creates the summary for one body and scans it for base
// effects and call edges. Nested literals are collected recursively as
// their own summaries.
func (st *effectState) collect(pkg *Package, key any, local string, body *ast.BlockStmt, isInit bool) {
	info := &effectInfo{
		key:    key,
		pkg:    pkg,
		local:  local,
		name:   pkg.Types.Name() + "." + local,
		origin: make(map[cfg.Effect]effectOrigin),
	}
	st.infos[key] = info
	st.order = append(st.order, info)
	w := &effectWalker{st: st, pkg: pkg, info: info, isInit: isInit}
	w.walk(body)
}

// effectWalker scans one function body. held counts lexically-held
// sync.Mutex/RWMutex locks (any mutex, including locals) so that
// lock-guarded package-level writes do not count as GlobalWrite.
type effectWalker struct {
	st     *effectState
	pkg    *Package
	info   *effectInfo
	isInit bool
	held   int
}

func (w *effectWalker) addBase(e cfg.Effect, what string, pos token.Pos) {
	if w.info.set.Has(e) {
		return
	}
	w.info.set = w.info.set.With(e)
	w.info.origin[e] = effectOrigin{pos: pos, what: what}
}

func (w *effectWalker) addEdge(callee any, pos token.Pos) {
	mask := cfg.NoEffects
	if fn, ok := callee.(*types.Func); ok && fn.Pkg() != nil {
		mask = seamMask(w.st.prog.Module, fn.Pkg().Path(), w.pkg.Path)
	}
	w.info.edges = append(w.info.edges, effectEdge{callee: callee, pos: pos, mask: mask})
}

func (w *effectWalker) walk(body *ast.BlockStmt) {
	info := w.pkg.Info
	deferred := make(map[*ast.CallExpr]bool)
	spawned := make(map[*ast.CallExpr]bool)
	shallowInspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			deferred[n.Call] = true
		case *ast.GoStmt:
			spawned[n.Call] = true
		}
		return true
	})

	litCount := 0
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			litCount++
			w.st.collect(w.pkg, n, w.info.local+".func"+strconv.Itoa(litCount), n.Body, false)
			return false
		case *ast.SendStmt:
			w.addBase(cfg.BlockingChan, "channel send", n.Pos())
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				w.addBase(cfg.BlockingChan, "channel receive", n.Pos())
			}
		case *ast.SelectStmt:
			if !selectHasDefault(n) {
				w.addBase(cfg.BlockingChan, "blocking select", n.Pos())
			}
		case *ast.RangeStmt:
			if tv, ok := info.Types[n.X]; ok && tv.Type != nil {
				switch tv.Type.Underlying().(type) {
				case *types.Chan:
					w.addBase(cfg.BlockingChan, "range over channel", n.Pos())
				case *types.Map:
					if what, hit := mapRangeOrderEffect(w.pkg, body, n); hit {
						w.addBase(cfg.MapRangeOrder, what, n.Pos())
					}
				}
			}
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				for _, lhs := range n.Lhs {
					w.checkWriteTarget(lhs, n.Pos())
				}
			}
		case *ast.IncDecStmt:
			w.checkWriteTarget(n.X, n.Pos())
		case *ast.CallExpr:
			w.classifyCall(n, deferred[n], spawned[n])
		}
		return true
	})
}

// checkWriteTarget records a GlobalWrite when the written lvalue roots
// at a package-level variable and the write is not synchronized (no
// lexically-held mutex) or pre-concurrency (init).
func (w *effectWalker) checkWriteTarget(lhs ast.Expr, pos token.Pos) {
	if w.isInit || w.held > 0 {
		return
	}
	v, ok := writeRoot(w.pkg.Info, lhs).(*types.Var)
	if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
		return
	}
	w.addBase(cfg.GlobalWrite, "write to "+v.Pkg().Name()+"."+v.Name(), pos)
}

func (w *effectWalker) classifyCall(call *ast.CallExpr, isDefer, isSpawn bool) {
	if isSpawn {
		return // runs on another goroutine's schedule; goleak owns it
	}
	info := w.pkg.Info
	if isConversion(info, call) {
		return
	}
	if fl, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		w.addEdge(fl, call.Pos()) // IIFE or deferred literal
		return
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			if id.Name == "delete" && len(call.Args) > 0 {
				w.checkWriteTarget(call.Args[0], call.Pos())
			}
			return
		}
	}
	fn := calleeFunc(info, call)
	if fn == nil {
		return // call through an opaque function value
	}
	sig, _ := fn.Type().(*types.Signature)

	if kind, recvName := syncCallKind(fn); kind != "" {
		switch kind {
		case "acquire":
			w.addBase(cfg.BlockingLock, "sync."+recvName+"."+fn.Name(), call.Pos())
			w.held++
		case "release":
			// Deferred unlocks keep the lock held for the rest of the
			// body, matching lockorder's lexical simulation.
			if !isDefer && w.held > 0 {
				w.held--
			}
		case "wait":
			w.addBase(cfg.BlockingLock, "sync."+recvName+"."+fn.Name(), call.Pos())
			if recvName == "Once" && len(call.Args) == 1 {
				if key := resolveFuncValue(info, call.Args[0]); key != nil {
					w.addEdge(key, call.Pos()) // Once.Do invokes its argument here
				}
			}
		}
		return
	}

	// Deadline-capable Read/Write receivers are connection-shaped:
	// the call blocks on the network no matter which wrapper owns the
	// method (the same heuristic deadlineflow keys on).
	if sig != nil && sig.Recv() != nil && hasSetDeadline(sig.Recv().Type()) {
		switch fn.Name() {
		case "Read", "Write", "ReadFrom", "WriteTo", "Accept":
			w.addBase(cfg.BlockingNet, displayCallee(fn), call.Pos())
		}
	}

	if fn.Pkg() != nil {
		if _, inModule := w.st.prog.ByPath[fn.Pkg().Path()]; inModule {
			if sig != nil && sig.Recv() != nil {
				if _, isIface := sig.Recv().Type().Underlying().(*types.Interface); isIface {
					for _, m := range w.st.interfaceImpls(fn) {
						w.addEdge(m, call.Pos())
					}
					return
				}
			}
			w.addEdge(fn, call.Pos())
			return
		}
	}
	if e, what, ok := classifyExternal(fn); ok {
		w.addBase(e, what, call.Pos())
	}
}

// fixpoint joins callee summaries into callers until nothing changes.
// The lattice is finite and the join monotone, so this terminates; the
// source-ordered iteration keeps origins deterministic.
func (st *effectState) fixpoint() {
	for changed := true; changed; {
		changed = false
		for _, info := range st.order {
			for _, e := range info.edges {
				callee := st.infos[e.callee]
				if callee == nil {
					continue
				}
				add := callee.set.Minus(e.mask).Minus(info.set)
				if add == cfg.NoEffects {
					continue
				}
				for _, eff := range add.Effects() {
					info.origin[eff] = effectOrigin{callee: e.callee, pos: e.pos}
				}
				info.set = info.set.Union(add)
				changed = true
			}
		}
	}
}

// seamMask returns the effects that do NOT leak across a call into a
// seam package: par's PRNGs are pure functions of (seed, index),
// simclock is the virtual clock, and faultnet's sleeps replay a seeded
// fault plan. Within the seam package itself nothing is masked, so its
// own summaries stay honest.
func seamMask(module, calleePkg, callerPkg string) cfg.EffectSet {
	if calleePkg == callerPkg {
		return cfg.NoEffects
	}
	switch strings.TrimPrefix(calleePkg, module+"/") {
	case "internal/par":
		return cfg.EffectSet(cfg.ReadsClock | cfg.AmbientRand | cfg.BlockingChan | cfg.BlockingLock | cfg.BlockingSleep)
	case "internal/simclock":
		return cfg.EffectSet(cfg.ReadsClock | cfg.BlockingSleep)
	case "internal/faultnet":
		return cfg.EffectSet(cfg.ReadsClock | cfg.AmbientRand | cfg.BlockingSleep)
	}
	return cfg.NoEffects
}

// syncCallKind classifies a sync-package method call for lock
// bookkeeping: "acquire"/"release" for Mutex/RWMutex, "wait" for the
// other blocking primitives. recvName is the sync type's name.
func syncCallKind(fn *types.Func) (kind, recvName string) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", ""
	}
	recv := sig.Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || !isPkgPath(named.Obj().Pkg(), "sync") {
		return "", ""
	}
	switch named.Obj().Name() {
	case "Mutex", "RWMutex":
		switch fn.Name() {
		case "Lock", "RLock":
			return "acquire", named.Obj().Name()
		case "Unlock", "RUnlock":
			return "release", named.Obj().Name()
		}
	case "WaitGroup", "Cond":
		if fn.Name() == "Wait" {
			return "wait", named.Obj().Name()
		}
	case "Once":
		if fn.Name() == "Do" {
			return "wait", named.Obj().Name()
		}
	}
	return "", ""
}

// osFSFuncs are the package-level os functions that touch the
// filesystem (the env accessors classify as Env, predicates like
// IsNotExist as nothing).
var osFSFuncs = map[string]bool{
	"Open": true, "OpenFile": true, "Create": true, "CreateTemp": true,
	"ReadFile": true, "WriteFile": true, "Remove": true, "RemoveAll": true,
	"Rename": true, "Mkdir": true, "MkdirAll": true, "MkdirTemp": true,
	"Stat": true, "Lstat": true, "ReadDir": true, "Readlink": true,
	"Symlink": true, "Link": true, "Chmod": true, "Chown": true,
	"Chtimes": true, "Truncate": true, "Chdir": true, "Getwd": true,
	"TempDir": true, "UserHomeDir": true, "UserCacheDir": true,
	"UserConfigDir": true, "Pipe": true,
}

var osEnvFuncs = map[string]bool{
	"Getenv": true, "LookupEnv": true, "Environ": true, "ExpandEnv": true,
	"Setenv": true, "Unsetenv": true, "Clearenv": true,
}

// classifyExternal assigns base effects to out-of-module calls by
// package path and name. Unlisted functions contribute nothing — the
// analysis is deliberately anchored at the operations that matter for
// the determinism contract rather than attempting stdlib completeness.
func classifyExternal(fn *types.Func) (cfg.Effect, string, bool) {
	pkg := fn.Pkg()
	if pkg == nil {
		return 0, "", false
	}
	name := fn.Name()
	sig, _ := fn.Type().(*types.Signature)
	isMethod := sig != nil && sig.Recv() != nil
	recvName := ""
	if isMethod {
		recv := sig.Recv().Type()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		if named, ok := recv.(*types.Named); ok {
			recvName = named.Obj().Name()
		}
	}
	switch pkg.Path() {
	case "time":
		if isMethod {
			return 0, "", false // methods on Time/Duration are pure values
		}
		switch name {
		case "Now", "Since", "Until", "After", "Tick", "NewTicker", "NewTimer", "AfterFunc":
			return cfg.ReadsClock, "time." + name, true
		case "Sleep":
			return cfg.BlockingSleep, "time.Sleep", true
		}
	case "math/rand", "math/rand/v2":
		// Top-level funcs draw from the shared process-global source;
		// explicit *rand.Rand methods and New* constructors are seeded.
		if !isMethod && !strings.HasPrefix(name, "New") {
			return cfg.AmbientRand, "rand." + name, true
		}
	case "crypto/rand":
		return cfg.AmbientRand, "crypto/rand." + name, true
	case "os":
		if isMethod {
			if recvName == "File" {
				return cfg.FS, "os.File." + name, true
			}
			return 0, "", false
		}
		if osEnvFuncs[name] {
			return cfg.Env, "os." + name, true
		}
		if osFSFuncs[name] {
			return cfg.FS, "os." + name, true
		}
	case "io/ioutil":
		return cfg.FS, "ioutil." + name, true
	case "path/filepath":
		switch name {
		case "Walk", "WalkDir", "Glob", "EvalSymlinks", "Abs":
			return cfg.FS, "filepath." + name, true
		}
	case "os/exec":
		return cfg.FS, "exec." + name, true
	case "net", "net/http", "net/smtp", "net/textproto", "crypto/tls":
		if isMethod {
			switch name {
			case "Read", "Write", "ReadFrom", "WriteTo", "Accept", "AcceptTCP",
				"Do", "RoundTrip", "Cmd", "ReadResponse", "ReadLine", "ReadCodeLine",
				"PrintfLine", "Hello", "Mail", "Rcpt", "Data", "Quit", "Auth",
				"StartTLS", "Handshake", "Serve", "ListenAndServe", "Shutdown":
				return cfg.BlockingNet, displayCallee(fn), true
			}
			return 0, "", false
		}
		switch {
		case strings.HasPrefix(name, "Dial"), strings.HasPrefix(name, "Listen"),
			strings.HasPrefix(name, "Lookup"), name == "SendMail",
			name == "Get", name == "Post", name == "PostForm", name == "Head":
			return cfg.BlockingNet, pkg.Name() + "." + name, true
		}
	}
	return 0, "", false
}

// writeRoot resolves the object a write target ultimately stores into:
// x, x.f, x[i], *x and chains thereof root at x; pkg.Var roots at the
// package-level variable. Anything rooted in a call or composite
// expression returns nil and is conservatively ignored.
func writeRoot(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok {
				if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
					return info.Uses[x.Sel]
				}
			}
			e = x.X
		case *ast.Ident:
			if x.Name == "_" {
				return nil
			}
			if obj := info.Uses[x]; obj != nil {
				return obj
			}
			return info.Defs[x]
		default:
			return nil
		}
	}
}

// resolveFuncValue resolves a function-valued expression to a summary
// key: a literal, a named function, or a method value. Anything else
// (a variable holding a function, a call result) returns nil.
func resolveFuncValue(info *types.Info, e ast.Expr) any {
	switch x := ast.Unparen(e).(type) {
	case *ast.FuncLit:
		return x
	case *ast.Ident:
		if f, ok := info.Uses[x].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[x.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// displayCallee names a function the way the blame chains print it:
// pkg.Name, pkg.Recv.Name for methods.
func displayCallee(fn *types.Func) string {
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		recv := sig.Recv().Type()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		if named, ok := recv.(*types.Named); ok {
			if named.Obj().Pkg() != nil {
				return named.Obj().Pkg().Name() + "." + named.Obj().Name() + "." + name
			}
			return named.Obj().Name() + "." + name
		}
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + name
	}
	return name
}

// mapRangeOrderEffect decides whether a range over a map lets the
// randomized iteration order escape: a tainted channel send or output
// call, a non-commutative += accumulation (strings concatenate, float
// addition is not associative), an append into shared state, or an
// append into a local slice that is never sorted afterwards. The
// collect-append-sort idiom and commutative folds (integer sums,
// counting, building another map) stay clean.
func mapRangeOrderEffect(pkg *Package, body *ast.BlockStmt, rng *ast.RangeStmt) (string, bool) {
	info := pkg.Info
	tainted := loopTainted(info, rng)
	if len(tainted) == 0 {
		return "", false
	}
	mentions := func(n ast.Node) bool {
		for obj := range tainted {
			if exprMentions(info, n, obj) {
				return true
			}
		}
		return false
	}
	what := ""
	hit := func(s string) {
		if what == "" {
			what = s
		}
	}
	var accs []types.Object
	seenAcc := make(map[types.Object]bool)
	addAcc := func(o types.Object) {
		if !seenAcc[o] {
			seenAcc[o] = true
			accs = append(accs, o)
		}
	}
	shallowInspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			if mentions(n.Value) {
				hit("channel send in map-range order")
			}
		case *ast.CallExpr:
			if kind := emitKind(info, n); kind != "" && anyArgMentions(info, n, tainted) {
				hit("map-range-ordered output (" + kind + ")")
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Rhs) == 1 && mentions(n.Rhs[0]) {
				if tv, ok := info.Types[n.Lhs[0]]; ok && nonCommutativeAccum(tv.Type) {
					hit("non-commutative += accumulation in map-range order")
				}
			}
			for i, rhs := range n.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || !isBuiltinAppend(info, call) || len(call.Args) < 2 || i >= len(n.Lhs) {
					continue
				}
				addsTaint := false
				for _, a := range call.Args[1:] {
					if mentions(a) {
						addsTaint = true
						break
					}
				}
				if !addsTaint {
					continue
				}
				if root := writeRoot(info, n.Lhs[i]); root != nil {
					addAcc(root)
					continue
				}
				hit("map-range-ordered append into shared state")
			}
		}
		return true
	})
	if what != "" {
		return what, true
	}
	// An unsorted accumulator only carries the effect if its order can
	// escape: it reaches a return, an emission or a send later in the
	// body (detmaprange's sink rule). Passing it to a callee that sorts
	// internally (stats aggregation) is order-insensitive.
	for _, o := range accs {
		if !sortedAfterLoop(info, body, rng, o) && reachesSinkAfterLoop(info, body, rng, o) {
			return "append to " + o.Name() + " in map-range order with no later sort", true
		}
	}
	return "", false
}

// reachesSinkAfterLoop reports whether obj order-sensitively reaches a
// return, emit call or channel send after the range loop.
func reachesSinkAfterLoop(info *types.Info, body *ast.BlockStmt, rng *ast.RangeStmt, obj types.Object) bool {
	found := false
	shallowInspect(body, func(n ast.Node) bool {
		if n.Pos() < rng.End() {
			return true
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if emitKind(info, n) == "" {
				return true
			}
			for _, a := range n.Args {
				if mentionsOrderSensitive(info, a, obj) {
					found = true
				}
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if mentionsOrderSensitive(info, r, obj) {
					found = true
				}
			}
		case *ast.SendStmt:
			if mentionsOrderSensitive(info, n.Value, obj) {
				found = true
			}
		}
		return true
	})
	return found
}

// nonCommutativeAccum reports whether += over t depends on operand
// order: string concatenation and floating-point addition do, integer
// and complex? — integers don't.
func nonCommutativeAccum(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	i := b.Info()
	return i&types.IsString != 0 || i&types.IsFloat != 0 || i&types.IsComplex != 0
}

// sortedAfterLoop reports whether some sort/slices call mentioning v
// (an accumulator local or the root of a shared container) appears
// after the range loop in the body — the collect-then-sort idiom that
// neutralizes map-range order.
func sortedAfterLoop(info *types.Info, body *ast.BlockStmt, rng *ast.RangeStmt, v types.Object) bool {
	found := false
	shallowInspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		fn := calleeFunc(info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, a := range call.Args {
			if exprMentions(info, a, v) {
				found = true
			}
		}
		return true
	})
	return found
}

// ---------------------------------------------------------------------
// Blame chains and the -format=effects dump.

// chainHop is one step of a blame chain: the name reached and the
// position of the call (or base operation) that reached it.
type chainHop struct {
	name string
	pos  token.Pos
}

// blameChain walks the origin links for one effect from key down to
// its base operation. Cycles (recursion) are cut at the first repeat.
func (st *effectState) blameChain(key any, e cfg.Effect) []chainHop {
	var hops []chainHop
	seen := make(map[any]bool)
	for cur := key; cur != nil && !seen[cur]; {
		seen[cur] = true
		info := st.infos[cur]
		if info == nil {
			break
		}
		o, ok := info.origin[e]
		if !ok {
			break
		}
		if o.callee == nil {
			return append(hops, chainHop{name: o.what, pos: o.pos})
		}
		name := "?"
		if next := st.infos[o.callee]; next != nil {
			name = next.name
		}
		hops = append(hops, chainHop{name: name, pos: o.pos})
		cur = o.callee
	}
	return hops
}

// relPos renders a position module-root-relative (slash-separated), so
// chains are stable across checkouts.
func (st *effectState) relPos(pos token.Pos) string {
	p := st.prog.Fset.Position(pos)
	rel, err := filepath.Rel(st.prog.Root, p.Filename)
	if err != nil || strings.HasPrefix(rel, "..") {
		rel = p.Filename
	}
	return fmt.Sprintf("%s:%d", filepath.ToSlash(rel), p.Line)
}

// describe renders one effect's blame chain twice: compact for the
// finding message (name → name → base) and annotated with file:line
// per hop for Finding.Detail, surfaced by repolint -why.
func (st *effectState) describe(fi *effectInfo, e cfg.Effect) (chain, detail string) {
	hops := st.blameChain(fi.key, e)
	names := []string{fi.name}
	annotated := []string{fi.name}
	for _, h := range hops {
		names = append(names, h.name)
		annotated = append(annotated, fmt.Sprintf("%s (%s)", h.name, st.relPos(h.pos)))
	}
	chain = strings.Join(names, " → ")
	detail = e.String() + ": " + strings.Join(annotated, " → ")
	return chain, detail
}

// FuncEffect is one function's inferred effect summary, as dumped by
// repolint -format=effects.
type FuncEffect struct {
	Pkg     string // module-relative package path ("internal/par")
	Name    string // package-local name ("Map", "Study.generateUnit", "Map.func1")
	Pos     token.Position
	Effects cfg.EffectSet
}

// EffectSummaries returns the inferred summaries for every function in
// the target packages, sorted by (package, name).
func EffectSummaries(prog *Program, targets []*Package) []FuncEffect {
	st := effectsOf(prog)
	want := make(map[*Package]bool, len(targets))
	for _, pkg := range targets {
		want[pkg] = true
	}
	var out []FuncEffect
	for _, info := range st.order {
		if !want[info.pkg] {
			continue
		}
		rel := strings.TrimPrefix(info.pkg.Path, prog.Module+"/")
		out = append(out, FuncEffect{
			Pkg:     rel,
			Name:    info.local,
			Pos:     prog.Fset.Position(info.key.(interface{ Pos() token.Pos }).Pos()),
			Effects: info.set,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pkg != out[j].Pkg {
			return out[i].Pkg < out[j].Pkg
		}
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Pos.Offset < out[j].Pos.Offset
	})
	return out
}

// WriteEffects writes the -format=effects dump: one line per function,
//
//	internal/par.Map: Blocking{chan,lock}
func WriteEffects(w io.Writer, summaries []FuncEffect) error {
	for _, s := range summaries {
		if _, err := fmt.Fprintf(w, "%s.%s: %s\n", s.Pkg, s.Name, s.Effects); err != nil {
			return err
		}
	}
	return nil
}
