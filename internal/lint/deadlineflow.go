package lint

import (
	"go/ast"
	"go/types"
	"strings"
	"sync"
)

// DeadlineFlowAnalyzer enforces the PR 3 per-phase-deadline discipline
// in the networked packages: a blocking read or write on a connection
// must be dominated by a deadline definition — every control-flow path
// from function entry to the operation must pass a Set*Deadline /
// Set*Timeout call, or a context.AfterFunc/time.AfterFunc that closes a
// conn (the ctx-budget idiom dnsserve.Serve uses), possibly one call
// level down in an in-module helper.
//
// Operations are recognized on values whose static type carries
// SetDeadline (net.Conn, net.PacketConn, concrete conns, the faultnet
// wrappers) when the receiver is a local or parameter — struct-field
// conns keep their deadline discipline across methods, which an
// intraprocedural dominator cannot see, so they are out of scope — and
// on locally-constructed bufio readers/writers wrapping such a value
// (traced through the def-use layer). io.ReadFull/Copy and fmt.Fprint*
// with a connection argument count as the same blocking operation.
var DeadlineFlowAnalyzer = &Analyzer{
	Name: "deadlineflow",
	Doc:  "flags blocking net reads/writes not dominated by a Set*Deadline/ctx-budget definition",
	Run:  runDeadlineFlow,
}

// deadlineScopePackages are the packages under the per-phase-deadline
// contract (PR 3): every socket op bounded, no unbounded blocking.
var deadlineScopePackages = []string{
	"internal/smtpd",
	"internal/smtpc",
	"internal/probe",
	"internal/resolve",
	"internal/dnsserve",
	"internal/whois",
}

var blockingRWNames = map[string]bool{
	"Read": true, "Write": true,
	"ReadFrom": true, "WriteTo": true,
	"ReadFromUDP": true, "WriteToUDP": true,
	"ReadMsgUDP": true, "WriteMsgUDP": true,
	"ReadString": true, "ReadBytes": true, "ReadSlice": true,
	"ReadLine": true, "ReadByte": true, "ReadRune": true,
	"WriteString": true, "Flush": true,
}

var deadlineSetterNames = map[string]bool{
	"SetDeadline": true, "SetReadDeadline": true, "SetWriteDeadline": true,
	"SetTimeout": true, "SetReadTimeout": true, "SetWriteTimeout": true,
}

func runDeadlineFlow(pass *Pass) {
	if !pkgInList(pass.Prog.Module, pass.Pkg.Path, deadlineScopePackages) {
		return
	}
	walkDeadlineSites(pass, func(ff *funcFlow, stmt ast.Stmt, call *ast.CallExpr) string {
		return blockingConnOp(pass, ff, stmt, call)
	}, func(call *ast.CallExpr, what string) {
		pass.Reportf(call.Pos(),
			"blocking %s on a connection is not dominated by a deadline: some path from function entry reaches it without a Set*Deadline/Set*Timeout or a ctx-tied Close (context.AfterFunc)", what)
	})
}

// walkDeadlineSites is the dominator walk deadlineflow and
// sessionproto's deadline facet share. In every function body of the
// package it collects the deadline definitions and the calls that site
// labels (label "" means not a site), then calls report for each
// labelled call that some path from function entry reaches without
// passing a deadline definition.
func walkDeadlineSites(pass *Pass, site func(ff *funcFlow, stmt ast.Stmt, call *ast.CallExpr) string, report func(call *ast.CallExpr, label string)) {
	for _, file := range pass.Pkg.Files {
		forEachFuncBody(file, func(body *ast.BlockStmt) {
			ff := newFuncFlow(pass.Pkg, body)
			type hit struct {
				stmt  ast.Stmt
				call  *ast.CallExpr
				label string
			}
			var hits []hit
			defs := make(map[ast.Stmt]bool)
			shallowNodesWithStmt(body, ff.g, func(stmt ast.Stmt, n ast.Node) {
				call, ok := n.(*ast.CallExpr)
				if !ok || stmt == nil {
					return
				}
				if isDeadlineDefinition(pass, call) {
					defs[stmt] = true
				} else if label := site(ff, stmt, call); label != "" {
					hits = append(hits, hit{stmt, call, label})
				}
			})
			for _, h := range hits {
				if stmtPathAvoiding(ff.g, nil, h.stmt, defs) {
					report(h.call, h.label)
				}
			}
		})
	}
}

// isDeadlineDefinition: does this call establish a deadline regime?
// setsDeadline, or an in-module helper whose own body does (one level).
func isDeadlineDefinition(pass *Pass, call *ast.CallExpr) bool {
	if setsDeadline(pass.Pkg.Info, call) {
		return true
	}
	fn := inModuleCallee(pass.Prog, pass.Pkg.Info, call)
	return fn != nil && deadlineDepth(pass.Prog, fn) == 1
}

// setsDeadline: is call a Set*Deadline/Set*Timeout method call, or a
// context/time AfterFunc scheduling a Close?
func setsDeadline(info *types.Info, call *ast.CallExpr) bool {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && deadlineSetterNames[sel.Sel.Name] {
		return true
	}
	fn := calleeFunc(info, call)
	return fn != nil && fn.Name() == "AfterFunc" &&
		(isPkgPath(fn.Pkg(), "context") || isPkgPath(fn.Pkg(), "time")) && afterFuncCloses(call)
}

// inModuleCallee returns call's static callee when this module declares
// it, else nil.
func inModuleCallee(prog *Program, info *types.Info, call *ast.CallExpr) *types.Func {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || !strings.HasPrefix(fn.Pkg().Path(), prog.Module) {
		return nil
	}
	return fn
}

// afterFuncCloses: does the function argument of the AfterFunc call a
// Close? This is the ctx-budget idiom: context.AfterFunc(ctx, func() {
// conn.Close() }) bounds every subsequent blocking op by ctx.
func afterFuncCloses(call *ast.CallExpr) bool {
	closes := false
	for _, arg := range call.Args {
		fl, ok := ast.Unparen(arg).(*ast.FuncLit)
		if !ok {
			// Method-value form: context.AfterFunc(ctx, conn.Close) — the
			// selector itself names Close.
			if sel, ok := ast.Unparen(arg).(*ast.SelectorExpr); ok && sel.Sel.Name == "Close" {
				return true
			}
			continue
		}
		ast.Inspect(fl.Body, func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok {
				if sel, ok := ast.Unparen(c.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Close" {
					closes = true
				}
			}
			return !closes
		})
	}
	return closes
}

// maxDeadlineDepth bounds the deadline summary. sessionproto accepts an
// event method whose setter sits up to three calls deep: smtpc's cmd
// needs two (cmd → writeLine → SetWriteDeadline).
const maxDeadlineDepth = 3

// deadlineSummaries caches deadlineDepth per function.
type deadlineSummaries struct {
	mu    sync.Mutex
	depth map[*types.Func]int
}

// deadlineDepth is the "callee sets a deadline" summary deadlineflow and
// sessionproto share: the fewest function bodies from fn's to one that
// contains a setsDeadline call — 1 when fn's own body (closures
// included) does, 2 when an in-module function it calls does, and so
// on up to maxDeadlineDepth; 0 when none does within that bound.
// deadlineflow accepts a helper at depth 1, sessionproto an event
// method at any depth.
func deadlineDepth(prog *Program, fn *types.Func) int {
	sums := prog.analyzerState("deadline.summaries", func() any {
		return &deadlineSummaries{depth: make(map[*types.Func]int)}
	}).(*deadlineSummaries)
	sums.mu.Lock()
	d, ok := sums.depth[fn]
	sums.mu.Unlock()
	if ok {
		return d
	}
	seen := map[*types.Func]bool{fn: true}
	level := []*types.Func{fn}
	for depth := 1; d == 0 && depth <= maxDeadlineDepth; depth++ {
		var next []*types.Func
		for _, f := range level {
			declPkg, decl := declOf(prog, f)
			if decl == nil || decl.Body == nil {
				continue
			}
			ast.Inspect(decl.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok && d == 0 {
					if setsDeadline(declPkg.Info, call) {
						d = depth
					} else if c := inModuleCallee(prog, declPkg.Info, call); c != nil && !seen[c] {
						seen[c] = true
						next = append(next, c)
					}
				}
				return d == 0
			})
		}
		level = next
	}
	sums.mu.Lock()
	sums.depth[fn] = d
	sums.mu.Unlock()
	return d
}

// blockingConnOp classifies call as a blocking socket operation and
// returns a label for the message ("" when it is not one).
func blockingConnOp(pass *Pass, ff *funcFlow, stmt ast.Stmt, call *ast.CallExpr) string {
	info := pass.Pkg.Info
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && blockingRWNames[sel.Sel.Name] {
		recvType := typeOf(info, sel.X)
		switch {
		case hasSetDeadline(recvType):
			if localNonFieldRoot(info, sel.X) {
				return sel.Sel.Name
			}
		case isBufioType(recvType):
			if bufioWrapsConn(pass, ff, stmt, sel.X) {
				return sel.Sel.Name + " (bufio over a conn)"
			}
		}
		return ""
	}
	fn := calleeFunc(info, call)
	if fn == nil {
		return ""
	}
	name := fn.Name()
	isIO := isPkgPath(fn.Pkg(), "io") &&
		(name == "Copy" || name == "CopyN" || name == "ReadAll" || name == "ReadFull" || name == "WriteString")
	isFmt := isPkgPath(fn.Pkg(), "fmt") && strings.HasPrefix(name, "Fprint")
	if !isIO && !isFmt {
		return ""
	}
	for _, arg := range call.Args {
		t := typeOf(info, arg)
		if hasSetDeadline(t) && localNonFieldRoot(info, arg) {
			return fn.Pkg().Name() + "." + name
		}
		if isBufioType(t) && bufioWrapsConn(pass, ff, stmt, arg) {
			return fn.Pkg().Name() + "." + name + " (bufio over a conn)"
		}
	}
	return ""
}

// localNonFieldRoot: the expression is rooted in a local variable or
// parameter (field-held conns are cross-method state, out of scope).
func localNonFieldRoot(info *types.Info, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	return localVar(info, id) != nil
}

func isBufioType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if !isPkgPath(obj.Pkg(), "bufio") {
		return false
	}
	switch obj.Name() {
	case "Reader", "Writer", "ReadWriter", "Scanner":
		return true
	}
	return false
}

// bufioWrapsConn: the bufio value was built here (bufio.NewReader(x),
// possibly through a local) over a deadline-capable value. Ambient
// bufio values (fields, parameters) return false — their construction
// is invisible.
func bufioWrapsConn(pass *Pass, ff *funcFlow, stmt ast.Stmt, e ast.Expr) bool {
	info := pass.Pkg.Info
	for _, src := range ff.sourcesOf(stmt, e) {
		c, ok := src.(*ast.CallExpr)
		if !ok {
			continue
		}
		fn := calleeFunc(info, c)
		if fn == nil || !isPkgPath(fn.Pkg(), "bufio") {
			continue
		}
		for _, arg := range c.Args {
			if hasSetDeadline(typeOf(info, arg)) {
				return true
			}
		}
	}
	return false
}
