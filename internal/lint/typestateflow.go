package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/lint/cfg"
)

// The typestate engine: generic driver for the L5 protocol analyzers
// (vaultstate, sessionproto; streamidx uses the machine directly). A
// tracked object is born at an acquisition site in its protocol's Init
// state and walked statement-by-statement over the CFG the way
// closeleak walks an io.Closer: method calls on it raise events
// (cfg.Machine.Step), merge points join state sets by union, passing
// it to an in-module callee applies a per-(callee, parameter) summary,
// and anything that lets the object escape — stored, captured,
// returned, handed to an unknown callee — conservatively ends
// tracking. An event fired in a state set with no transition for it
// (the Step rejection) is the protocol violation; the witness path of
// events that led there is reported as a blame chain, surfaced by
// `repolint -why` like the effect layer's chains.
//
// Deferred calls run on the edge into Exit, after the last observable
// protocol event, so they can neither advance nor reject a protocol
// here — the engine ignores them. (Whether a Close is missing
// altogether is closeleak's finding, not a typestate one.)

// protoTracker configures one protocol analyzer over the engine.
type protoTracker struct {
	proto *Protocol
	// tracked reports whether the named defining package + type is a
	// tracked object type for this protocol.
	tracked func(pass *Pass, pkgPath, typeName string) bool
	// eventOf names the protocol event a method call on a tracked
	// object raises; "" means the call is protocol-neutral.
	eventOf func(pass *Pass, call *ast.CallExpr, method string) string
}

// tsHop is one step of a typestate blame chain.
type tsHop struct {
	name string
	pos  token.Pos
}

// tsTrace is a persistent (shared-tail) event history, so BFS items
// can fork cheaply at branches.
type tsTrace struct {
	hop  tsHop
	prev *tsTrace
}

func (t *tsTrace) hops() []tsHop {
	var rev []tsHop
	for ; t != nil; t = t.prev {
		rev = append(rev, t.hop)
	}
	out := make([]tsHop, len(rev))
	for i, h := range rev {
		out[len(rev)-1-i] = h
	}
	return out
}

// tsRejection is one violation recorded while summarizing a callee:
// the event, the states that rejected it, and the callee-local chain.
type tsRejection struct {
	ev   string
	rej  cfg.StateSet
	hops []tsHop
}

// tsResult is a parameter summary: where each possible caller state
// set ends up, whether the object escaped tracking, and the
// violations the incoming states trigger inside the callee.
type tsResult struct {
	out    cfg.StateSet
	escape bool
	rejs   []tsRejection
}

// runProtoTracker runs one protocol over every function body of the
// package, tracking each acquisition of a protocol object.
func runProtoTracker(pass *Pass, pt *protoTracker) {
	if !protoPkgInScope(pass, pt.proto) {
		return
	}
	pm := compiledProtocol(pass.Prog, pt.proto)
	for _, file := range pass.Pkg.Files {
		forEachFuncBody(file, func(body *ast.BlockStmt) {
			acqs := protoAcquisitions(pass, pt, body)
			if len(acqs) == 0 {
				return
			}
			ff := newFuncFlow(pass.Pkg, body)
			for _, a := range acqs {
				trackProtoObject(pass, pt, pm, ff, a)
			}
		})
	}
}

// protoPkgInScope: the package is (or directly imports) one of the
// protocol's tracked-type packages. Everything else cannot mention a
// tracked type and is skipped without building any flow graphs.
func protoPkgInScope(pass *Pass, proto *Protocol) bool {
	rel := strings.TrimPrefix(pass.Pkg.Path, pass.Prog.Module+"/")
	for _, ti := range proto.TrackedImports {
		if rel == ti {
			return true
		}
	}
	if pass.Pkg.Types == nil {
		return false
	}
	for _, imp := range pass.Pkg.Types.Imports() {
		ipath := strings.TrimPrefix(imp.Path(), pass.Prog.Module+"/")
		for _, ti := range proto.TrackedImports {
			if ipath == ti {
				return true
			}
		}
	}
	return false
}

// protoAcq is one tracked-object birth site.
type protoAcq struct {
	stmt *ast.AssignStmt
	v    *types.Var
}

// protoAcquisitions finds the acquisition sites in one body (nested
// function literals have their own bodies and their own walks): an
// assignment whose single RHS is a tracked composite literal
// (&sessionConn{...}) or a constructor-named call (Open*/New*/
// Import*/Create*) returning a tracked first result, bound to a local.
func protoAcquisitions(pass *Pass, pt *protoTracker, body *ast.BlockStmt) []protoAcq {
	var out []protoAcq
	shallowInspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 || len(as.Lhs) == 0 {
			return true
		}
		id, ok := ast.Unparen(as.Lhs[0]).(*ast.Ident)
		if !ok || id.Name == "_" {
			return true
		}
		v := localVar(pass.Pkg.Info, id)
		if v == nil || !protoTrackedType(pass, pt, v.Type()) {
			return true
		}
		if protoAcquisitionRhs(pass, pt, as.Rhs[0]) {
			out = append(out, protoAcq{as, v})
		}
		return true
	})
	return out
}

func protoAcquisitionRhs(pass *Pass, pt *protoTracker, rhs ast.Expr) bool {
	switch e := ast.Unparen(rhs).(type) {
	case *ast.UnaryExpr:
		if e.Op != token.AND {
			return false
		}
		cl, ok := e.X.(*ast.CompositeLit)
		if !ok {
			return false
		}
		return protoTrackedType(pass, pt, typeOf(pass.Pkg.Info, cl))
	case *ast.CompositeLit:
		return protoTrackedType(pass, pt, typeOf(pass.Pkg.Info, e))
	case *ast.CallExpr:
		if isConversion(pass.Pkg.Info, e) {
			return false
		}
		res := funcResults(pass.Pkg.Info, e)
		if res == nil || res.Len() == 0 || !protoTrackedType(pass, pt, res.At(0).Type()) {
			return false
		}
		// Constructor-shaped names only: a helper returning an existing
		// shared object would arrive in an unknown state, not Init.
		name := ""
		switch fun := ast.Unparen(e.Fun).(type) {
		case *ast.Ident:
			name = fun.Name
		case *ast.SelectorExpr:
			name = fun.Sel.Name
		}
		lower := strings.ToLower(name)
		for _, prefix := range []string{"open", "new", "import", "create"} {
			if strings.HasPrefix(lower, prefix) {
				return true
			}
		}
	}
	return false
}

// protoTrackedType unwraps one pointer and asks the tracker about the
// named type underneath.
func protoTrackedType(pass *Pass, pt *protoTracker, t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return pt.tracked(pass, named.Obj().Pkg().Path(), named.Obj().Name())
}

// protoObjLabel renders the object for messages: "vault.Vault v".
func protoObjLabel(v *types.Var) string {
	t := v.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	name := types.TypeString(t, func(p *types.Package) string { return p.Name() })
	return name + " " + v.Name()
}

// Statement actions w.r.t. a tracked object.
const (
	paEvent = iota // a protocol event (method call on the object)
	paCall         // the object flows into an in-module callee
)

type protoAction struct {
	kind   int
	ev     string // paEvent
	pos    token.Pos
	fn     *types.Func // paCall
	argIdx int
}

// trackProtoObject walks every path from the acquisition, firing
// events into the machine and reporting rejections with their witness
// chains. Each violating call site reports once per acquisition.
func trackProtoObject(pass *Pass, pt *protoTracker, pm *protoMachine, ff *funcFlow, acq protoAcq) {
	startB := ff.g.BlockOf(acq.stmt)
	if startB == nil {
		return
	}
	label := protoObjLabel(acq.v)
	reported := make(map[token.Pos]bool)
	root := &tsTrace{hop: tsHop{"acquired " + acq.v.Name(), acq.stmt.Pos()}}
	report := func(ev string, rej cfg.StateSet, pos token.Pos, tr *tsTrace) {
		if reported[pos] {
			return
		}
		reported[pos] = true
		reportProtoViolation(pass, pm, label, ev, rej, pos, tr.hops())
	}
	protoBFS(pass, pt, pm, ff, acq.v, acq.stmt, cfg.SingleState(pm.init), root, report)
}

// protoBFS is the shared path walk: from the statement after `start`
// (or function entry when start is nil) with the object in initSS.
// report is called for every rejection, with the trace up to and
// including the rejected event. The return value summarizes the walk
// for callers that need it (parameter summaries): the join of the
// state sets reaching Exit while still tracked, and whether tracking
// ended early on some path.
func protoBFS(pass *Pass, pt *protoTracker, pm *protoMachine, ff *funcFlow, v *types.Var,
	start ast.Stmt, initSS cfg.StateSet, root *tsTrace,
	report func(ev string, rej cfg.StateSet, pos token.Pos, tr *tsTrace)) (out cfg.StateSet, escape bool) {

	type bfsKey struct {
		b  int
		ss cfg.StateSet
	}
	type bfsItem struct {
		b, idx int
		ss     cfg.StateSet
		tr     *tsTrace
	}
	var queue []bfsItem
	if start == nil {
		queue = append(queue, bfsItem{ff.g.Entry.Index, 0, initSS, root})
	} else {
		sb := ff.g.BlockOf(start)
		if sb == nil {
			return initSS, true
		}
		queue = append(queue, bfsItem{sb.Index, stmtIndex(sb, start) + 1, initSS, root})
	}
	seen := make(map[bfsKey]bool)
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		b := ff.g.Blocks[it.b]
		ss, tr := it.ss, it.tr
		alive := true
		for i := it.idx; i < len(b.Stmts) && alive; i++ {
			s := b.Stmts[i]
			if s == start {
				// Looped back to the acquisition: the name is rebound to a
				// fresh object there, which has its own walk.
				alive = false
				break
			}
			actions, kill := collectProtoActions(pass, pt, s, v)
			for _, act := range actions {
				switch act.kind {
				case paEvent:
					ev, ok := pm.eventIdx[act.ev]
					if !ok {
						continue
					}
					next, rej := pm.m.Step(ss, ev)
					hop := &tsTrace{hop: tsHop{act.ev, act.pos}, prev: tr}
					if !rej.IsEmpty() {
						report(act.ev, rej, act.pos, hop)
					}
					ss, tr = next, hop
					if ss.IsEmpty() {
						alive = false
					}
				case paCall:
					res := protoParamSummary(pass, pt, pm, act.fn, act.argIdx, ss)
					hop := &tsTrace{hop: tsHop{displayCallee(act.fn), act.pos}, prev: tr}
					for _, r := range res.rejs {
						inner := hop
						for _, h := range r.hops {
							inner = &tsTrace{hop: h, prev: inner}
						}
						report(r.ev, r.rej, act.pos, inner)
					}
					ss, tr = res.out, hop
					if res.escape || ss.IsEmpty() {
						alive = false
					}
				}
				if !alive {
					break
				}
			}
			if kill {
				alive = false
			}
		}
		if !alive {
			// Tracking ended early on this path — object escaped, state
			// set drained after a total rejection, or we looped back to
			// the acquisition. All of these make the summary partial, so
			// callers must treat the result as conservative.
			escape = true
			continue
		}
		for _, succ := range b.Succs {
			if succ == ff.g.Exit {
				out = out.Join(ss)
				continue
			}
			k := bfsKey{succ.Index, ss}
			if !seen[k] {
				seen[k] = true
				queue = append(queue, bfsItem{succ.Index, 0, ss, tr})
			}
		}
	}
	return out, escape
}

// collectProtoActions classifies one statement w.r.t. the tracked
// object: the ordered protocol events and callee hand-offs it
// contains, plus whether the object escapes tracking here (stored,
// captured, rebound, returned, passed to an unknown callee).
func collectProtoActions(pass *Pass, pt *protoTracker, stmt ast.Stmt, v *types.Var) (actions []protoAction, kill bool) {
	info := pass.Pkg.Info
	if !exprMentions(info, stmt, v) {
		return nil, false
	}
	switch stmt.(type) {
	case *ast.DeferStmt:
		// Runs on the edge into Exit, after the last observable event —
		// it can neither advance nor reject the protocol (file comment).
		return nil, false
	case *ast.GoStmt:
		return nil, true // concurrent use: the object escapes this walk
	}
	var stack []ast.Node
	ast.Inspect(stmt, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		stack = append(stack, n)
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if info.Uses[id] != v && info.Defs[id] != v {
			return true
		}
		act, k := protoIdentAction(pass, pt, stack, id, v)
		if act != nil {
			actions = append(actions, *act)
		}
		if k {
			kill = true
		}
		return true
	})
	return actions, kill
}

// protoIdentAction inspects one mention's syntactic context, mirroring
// closeleak's identDisposition: method calls raise events, argument
// positions consult callee summaries, escapes end tracking, and plain
// reads (field access, nil checks) are protocol-neutral.
func protoIdentAction(pass *Pass, pt *protoTracker, stack []ast.Node, id *ast.Ident, v *types.Var) (*protoAction, bool) {
	parent := func(i int) ast.Node {
		if len(stack) < i+2 {
			return nil
		}
		return stack[len(stack)-2-i]
	}
	if sel, ok := parent(0).(*ast.SelectorExpr); ok && sel.X == id {
		if call, ok := parent(1).(*ast.CallExpr); ok && call.Fun == sel {
			if ev := pt.eventOf(pass, call, sel.Sel.Name); ev != "" {
				return &protoAction{kind: paEvent, ev: ev, pos: call.Pos()}, false
			}
			return nil, false // protocol-neutral method
		}
		return nil, false // field access (t.conn = ..., c.err reads)
	}
	for i := 0; ; i++ {
		p := parent(i)
		if p == nil {
			return nil, false
		}
		switch p := p.(type) {
		case *ast.CallExpr:
			return protoCallAction(pass, p, id, v)
		case *ast.CompositeLit, *ast.FuncLit, *ast.TypeAssertExpr:
			return nil, true // stored, captured, or re-aliased
		case *ast.UnaryExpr:
			if p.Op == token.AND {
				return nil, true
			}
		case *ast.IndexExpr:
			return nil, true
		case *ast.AssignStmt:
			for _, lhs := range p.Lhs {
				if ast.Unparen(lhs) == ast.Expr(id) {
					return nil, true // rebound: the old object is gone
				}
			}
			for _, rhs := range p.Rhs {
				if ast.Unparen(rhs) == ast.Expr(id) {
					return nil, true // bare alias: w := v
				}
			}
			return nil, false
		case *ast.ReturnStmt, *ast.SendStmt, *ast.GoStmt, *ast.DeferStmt:
			return nil, true // ownership leaves this walk
		case *ast.BinaryExpr, *ast.IfStmt, *ast.ForStmt, *ast.SwitchStmt:
			return nil, false // comparisons, nil checks
		}
	}
}

// protoCallAction: the object flows into a call argument. In-module
// callees with bodies are summarized; the closeleak borrow list
// (bufio, io, fmt) is protocol-neutral; anything else ends tracking.
func protoCallAction(pass *Pass, call *ast.CallExpr, id *ast.Ident, v *types.Var) (*protoAction, bool) {
	info := pass.Pkg.Info
	fn := calleeFunc(info, call)
	if fn == nil {
		return nil, true // dynamic call: assume anything
	}
	pkg := fn.Pkg()
	if pkg != nil && (pkg.Path() == pass.Prog.Module || strings.HasPrefix(pkg.Path(), pass.Prog.Module+"/")) {
		argIdx := -1
		for i, a := range call.Args {
			if exprMentions(info, a, v) {
				argIdx = i
				break
			}
		}
		if argIdx < 0 {
			return nil, true
		}
		if _, decl := declOf(pass.Prog, fn); decl == nil || decl.Body == nil {
			return nil, true
		}
		return &protoAction{kind: paCall, pos: call.Pos(), fn: fn, argIdx: argIdx}, false
	}
	switch {
	case isPkgPath(pkg, "bufio"), isPkgPath(pkg, "fmt"):
		return nil, false
	case isPkgPath(pkg, "io"):
		return nil, false // Copy/ReadFull/... borrow for the call only
	}
	return nil, true
}

// ---------------------------------------------------------------------
// Parameter summaries: the interprocedural half.

type tsSumKey struct {
	proto string
	fn    *types.Func
	idx   int
	in    cfg.StateSet
}

type tsSummaries struct {
	mu       sync.Mutex
	m        map[tsSumKey]*tsResult
	inflight map[tsSumKey]bool
}

// protoParamSummary answers: if the object arrives in callee fn's
// argIdx-th parameter with state set in, where does it end up, does it
// escape, and which events inside reject? Memoized per Program;
// recursion (mutual or self) conservatively reports escape.
func protoParamSummary(pass *Pass, pt *protoTracker, pm *protoMachine, fn *types.Func, argIdx int, in cfg.StateSet) *tsResult {
	sums := pass.Prog.analyzerState("typestate.summaries."+pt.proto.Name, func() any {
		return &tsSummaries{m: make(map[tsSumKey]*tsResult), inflight: make(map[tsSumKey]bool)}
	}).(*tsSummaries)
	key := tsSumKey{pt.proto.Name, fn, argIdx, in}
	sums.mu.Lock()
	if cached, ok := sums.m[key]; ok {
		sums.mu.Unlock()
		return cached
	}
	if sums.inflight[key] {
		sums.mu.Unlock()
		return &tsResult{out: in, escape: true}
	}
	sums.inflight[key] = true
	sums.mu.Unlock()

	res := summarizeProtoParam(pass, pt, pm, fn, argIdx, in)

	sums.mu.Lock()
	sums.m[key] = res
	delete(sums.inflight, key)
	sums.mu.Unlock()
	return res
}

func summarizeProtoParam(pass *Pass, pt *protoTracker, pm *protoMachine, fn *types.Func, argIdx int, in cfg.StateSet) *tsResult {
	declPkg, decl := declOf(pass.Prog, fn)
	if decl == nil || decl.Body == nil {
		return &tsResult{out: in, escape: true}
	}
	var param *types.Var
	i := 0
	for _, field := range decl.Type.Params.List {
		for _, name := range field.Names {
			if i == argIdx {
				param, _ = declPkg.Info.Defs[name].(*types.Var)
			}
			i++
		}
		if len(field.Names) == 0 {
			i++
		}
	}
	if param == nil {
		return &tsResult{out: in, escape: true}
	}
	calleePass := &Pass{Prog: pass.Prog, Pkg: declPkg}
	ff := newFuncFlow(declPkg, decl.Body)
	res := &tsResult{}
	record := func(ev string, rej cfg.StateSet, pos token.Pos, tr *tsTrace) {
		res.rejs = append(res.rejs, tsRejection{ev: ev, rej: rej, hops: tr.hops()})
	}
	res.out, res.escape = protoBFS(calleePass, pt, pm, ff, param, nil, in, nil, record)
	return res
}

// ---------------------------------------------------------------------
// Reporting.

// reportProtoViolation emits the finding with its blame chain: the
// message carries the event, object, rejecting states and the table's
// Fail text; the Detail (repolint -why) annotates every hop of the
// witness path with a module-relative file:line, exactly like the
// effect layer's chains.
func reportProtoViolation(pass *Pass, pm *protoMachine, label, ev string, rej cfg.StateSet, pos token.Pos, hops []tsHop) {
	fail := pm.p.Fail[ev]
	if fail == "" {
		fail = "the " + pm.p.Name + " protocol has no transition for this event here"
	}
	annotated := make([]string, 0, len(hops))
	for _, h := range hops {
		annotated = append(annotated, fmt.Sprintf("%s (%s)", h.name, progRelPos(pass.Prog, h.pos)))
	}
	detail := fmt.Sprintf("%s in state %s: %s", ev, pm.stateSetNames(rej), strings.Join(annotated, " → "))
	pass.ReportfChain(pos, detail,
		"%s on %s in state %s breaks the %s protocol: %s",
		ev, label, pm.stateSetNames(rej), pm.p.Name, fail)
}

// progRelPos renders a position module-root-relative (slash-separated)
// so chains are stable across checkouts.
func progRelPos(prog *Program, pos token.Pos) string {
	p := prog.Fset.Position(pos)
	rel, err := filepath.Rel(prog.Root, p.Filename)
	if err != nil || strings.HasPrefix(rel, "..") {
		rel = p.Filename
	}
	return fmt.Sprintf("%s:%d", filepath.ToSlash(rel), p.Line)
}
