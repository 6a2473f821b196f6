package lint

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"

	"repro/internal/lint/cfg"
)

// Glue between the typechecked program and the cfg package's
// value-propagation layer, shared by the provenance analyzers (keyleak,
// ctxprop) and the hot-path analyzer (allochot). The cfg solver is
// purely syntactic; everything semantic — what a parameter is, which
// stdlib calls forward content, which types can carry it — lives here,
// injected through the solver's eval hook.
//
// Interprocedural analyses seed every parameter of a function with a
// distinct synthetic "param:i" tag in a single propagation pass (the
// receiver is index -1), instead of one seeded run per parameter. A
// sink hit carrying a param tag becomes a function summary
// ("parameter i flows to this sink"); a hit carrying a real provenance
// tag is an intrinsic finding reported in the function's own package.
// The two never mix, so call sites report only the taint the caller
// hands in.

// paramTagPrefix marks the synthetic provenance tags used to compute
// function summaries; they never appear in findings.
const paramTagPrefix = "param:"

// paramTag is the synthetic tag for parameter i; i = recvParamIndex is
// the method receiver.
func paramTag(i int) string { return paramTagPrefix + strconv.Itoa(i) }

// recvParamIndex is the pseudo-index of a method receiver in parameter
// summaries. Call sites resolve it to the selector's receiver operand.
const recvParamIndex = -1

// paramTagIndex decodes a synthetic parameter tag.
func paramTagIndex(tag string) (int, bool) {
	rest, ok := strings.CutPrefix(tag, paramTagPrefix)
	if !ok {
		return 0, false
	}
	i, err := strconv.Atoi(rest)
	return i, err == nil
}

// realTags filters the synthetic parameter tags out of a provenance set.
func realTags(tags []string) []string {
	out := tags[:0:0]
	for _, t := range tags {
		if !strings.HasPrefix(t, paramTagPrefix) {
			out = append(out, t)
		}
	}
	return out
}

// propFlow bundles one function body's three cfg layers: graph, def-use
// and value propagation with a caller-supplied eval hook. The hook may
// call back into Value (the solver) for sub-expressions.
type propFlow struct {
	ff *funcFlow
	vp *cfg.ValueProp
}

func newPropFlow(pkg *Package, ff *funcFlow, eval func(vp *cfg.ValueProp, stmt ast.Stmt, e ast.Expr) (cfg.Value, bool)) *propFlow {
	pf := &propFlow{ff: ff}
	var hook func(ast.Stmt, ast.Expr) (cfg.Value, bool)
	if eval != nil {
		hook = func(stmt ast.Stmt, e ast.Expr) (cfg.Value, bool) { return eval(pf.vp, stmt, e) }
	}
	pf.vp = cfg.NewValueProp(ff.g, ff.du, func(id *ast.Ident) any {
		if v := localVar(pkg.Info, id); v != nil {
			return v
		}
		return nil
	}, hook)
	return pf
}

// Value answers the abstract value of e just before stmt.
func (pf *propFlow) Value(stmt ast.Stmt, e ast.Expr) cfg.Value { return pf.vp.ValueOf(stmt, e) }

// paramObjects maps each parameter object of fn to its summary index,
// receiver included. A nil fn yields an empty map.
func paramObjects(fn *types.Func) map[types.Object]int {
	out := make(map[types.Object]int)
	if fn == nil {
		return out
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return out
	}
	if r := sig.Recv(); r != nil {
		out[r] = recvParamIndex
	}
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		out[params.At(i)] = i
	}
	return out
}

// bodiesIn returns fd's body followed by every nested function-literal
// body, in source order. Each gets its own cfg stack, but they share
// the enclosing function's parameter seeding — a closure that logs a
// captured parameter still leaks it.
func bodiesIn(fd *ast.FuncDecl) []*ast.BlockStmt {
	if fd.Body == nil {
		return nil
	}
	out := []*ast.BlockStmt{fd.Body}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			out = append(out, lit.Body)
		}
		return true
	})
	return out
}

// contentPropagatingStdlib lists the stdlib package path prefixes whose
// functions forward their inputs' content into their outputs (readers,
// buffers, string/byte manipulation, encoders, mail/MIME parsing).
// Crypto and hashing are deliberately absent: digesting is the blessed
// laundering seam.
var contentPropagatingStdlib = []string{
	"strings", "bytes", "fmt", "strconv", "bufio", "io",
	"encoding/", "net/mail", "mime", "compress/", "unicode",
	"path", "regexp", "sort", "slices", "maps",
}

func isContentPropagatingStdlib(pkg *types.Package) bool {
	if pkg == nil {
		return false
	}
	path := pkg.Path()
	for _, p := range contentPropagatingStdlib {
		if strings.HasSuffix(p, "/") {
			if strings.HasPrefix(path, p) {
				return true
			}
			continue
		}
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// contentFreeResult reports whether a call with this result type cannot
// carry content onward: booleans, numbers, and tuples of them. An
// unknown or any other type is assumed to be able to carry content.
func contentFreeResult(t types.Type) bool {
	if t == nil {
		return false
	}
	if tu, ok := t.(*types.Tuple); ok {
		for i := 0; i < tu.Len(); i++ {
			if !contentFreeResult(tu.At(i).Type()) {
				return false
			}
		}
		return true
	}
	// Underlying so named types (type Verdict int) count too.
	if b, ok := t.Underlying().(*types.Basic); ok {
		return b.Info()&(types.IsBoolean|types.IsNumeric) != 0
	}
	return false
}

// isBuiltinCall reports whether call invokes the named builtin.
func isBuiltinCall(info *types.Info, call *ast.CallExpr, names ...string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	if _, ok := info.Uses[id].(*types.Builtin); !ok {
		return false
	}
	for _, n := range names {
		if id.Name == n {
			return true
		}
	}
	return false
}

// recvOperand returns the receiver operand of a method call (the x in
// x.M(...)), or nil for plain function calls.
func recvOperand(call *ast.CallExpr) ast.Expr {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return sel.X
	}
	return nil
}

// argForParamIndex maps a summary parameter index to the corresponding
// call-site operand: the receiver for recvParamIndex, else the
// positional argument. Returns nil when the call shape has no such
// operand (variadic mismatch, receiver of a plain call).
func argForParamIndex(call *ast.CallExpr, i int) ast.Expr {
	if i == recvParamIndex {
		return recvOperand(call)
	}
	if i >= 0 && i < len(call.Args) {
		return call.Args[i]
	}
	return nil
}
