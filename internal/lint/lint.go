// Package lint is the project's custom static-analysis layer: a small
// driver built only on the standard library's go/parser, go/ast and
// go/types, plus a registry of analyzers that machine-check the
// invariants the compiler cannot — most importantly the paper's ethical
// invariant that no raw captured email reaches persistent storage or a
// log without passing through internal/sanitize (Section 4.2.2).
//
// The driver loads every package of the module from source, typechecks
// it, and runs each analyzer. Findings print as
//
//	file:line: [analyzer] message
//
// and any finding makes `repolint` exit non-zero, so the checks run as
// part of the build alongside `go vet`.
//
// A finding that is intentional (for example a deliberately ignored
// best-effort QUIT) can be waived with a directive comment on the same
// or the preceding line:
//
//	//repolint:allow <analyzer> <reason>
//
// The reason is mandatory; a bare waiver is itself reported.
package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Finding is one analyzer diagnostic.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
	// Symbol is the enclosing function ("Name" or "Type.Method"), ""
	// at package level. Baseline entries key on it instead of the line
	// number so they survive unrelated churn in the same file.
	Symbol string
	// Detail carries supplementary explanation that is too long for the
	// one-line message — for effect findings, the interprocedural blame
	// chain with a module-relative file:line per hop. It is surfaced by
	// `repolint -why` and the JSON output, not the text format.
	Detail string
}

// String formats the finding in the driver's canonical output format.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Analyzer, f.Message)
}

// Package is one loaded, typechecked package.
type Package struct {
	Path  string // import path ("repro/internal/smtpd")
	Dir   string // absolute directory
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Program is the whole loaded module in dependency order.
type Program struct {
	Module   string // module path from go.mod
	Root     string // absolute module root directory
	Fset     *token.FileSet
	Packages []*Package // topological order, dependencies first
	ByPath   map[string]*Package

	stateMu sync.Mutex
	state   map[string]any
}

// analyzerState returns the per-Program state stored under key,
// computing it with build on first use. Analyzer passes run
// concurrently across packages, so whole-module analyses (lockorder,
// keyleak's taint summaries) must keep their shared state here
// rather than in package-level variables.
func (p *Program) analyzerState(key string, build func() any) any {
	p.stateMu.Lock()
	defer p.stateMu.Unlock()
	if p.state == nil {
		p.state = make(map[string]any)
	}
	if v, ok := p.state[key]; ok {
		return v
	}
	v := build()
	p.state[key] = v
	return v
}

// Pass carries the state one analyzer run sees for one package.
type Pass struct {
	Prog *Program
	Pkg  *Package

	analyzer string
	findings *[]Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Pos:      p.Prog.Fset.Position(pos),
		Analyzer: p.analyzer,
		Message:  fmt.Sprintf(format, args...),
		Symbol:   enclosingSymbol(p.Pkg, pos),
	})
}

// ReportfChain records a finding at pos with an attached detail string
// (for effect findings, the blame chain shown by `repolint -why`).
func (p *Pass) ReportfChain(pos token.Pos, detail, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Pos:      p.Prog.Fset.Position(pos),
		Analyzer: p.analyzer,
		Message:  fmt.Sprintf(format, args...),
		Symbol:   enclosingSymbol(p.Pkg, pos),
		Detail:   detail,
	})
}

// Analyzer is one registered check.
type Analyzer struct {
	Name string
	Doc  string
	// Run inspects one package. Whole-program analyzers can reach every
	// other package through pass.Prog.
	Run func(pass *Pass)
}

// Analyzers returns the full registry in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		MutexCopyAnalyzer,
		CtxLeakAnalyzer,
		ErrDropAnalyzer,
		TimeNondeterminismAnalyzer,
		GoleakAnalyzer,
		LockOrderAnalyzer,
		UnboundedSpawnAnalyzer,
		DetMapRangeAnalyzer,
		SeedFlowAnalyzer,
		CloseLeakAnalyzer,
		DeadlineFlowAnalyzer,
		KeyLeakAnalyzer,
		AllocHotAnalyzer,
		CtxPropAnalyzer,
		PureParAnalyzer,
		LockBlockAnalyzer,
		GlobalMutAnalyzer,
		VaultStateAnalyzer,
		SessionProtoAnalyzer,
		StreamIdxAnalyzer,
	}
}

// AnalyzerByName finds a registered analyzer.
func AnalyzerByName(name string) (*Analyzer, bool) {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a, true
		}
	}
	return nil, false
}

// Run executes the analyzers over the target packages and returns the
// surviving findings sorted by position. Packages are analyzed in
// parallel (bounded by GOMAXPROCS); the final sort makes the output
// deterministic regardless of scheduling. Directive waivers are applied
// here; malformed directives and stale waivers — directives whose
// analyzer ran but which no longer suppress anything — become findings
// themselves.
func Run(prog *Program, targets []*Package, analyzers []*Analyzer) []Finding {
	perPkg := make([][]Finding, len(targets))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, pkg := range targets {
		sem <- struct{}{}
		wg.Add(1)
		go func(i int, pkg *Package) {
			defer wg.Done()
			defer func() { <-sem }()
			var findings []Finding
			for _, a := range analyzers {
				pass := &Pass{Prog: prog, Pkg: pkg, analyzer: a.Name, findings: &findings}
				a.Run(pass)
			}
			perPkg[i] = findings
		}(i, pkg)
	}
	wg.Wait()

	total := 0
	for _, fs := range perPkg {
		total += len(fs)
	}
	findings := make([]Finding, 0, total)
	for _, fs := range perPkg {
		findings = append(findings, fs...)
	}
	waivers, bad := collectWaivers(prog, targets)
	findings = append(findings, bad...)
	kept := findings[:0]
	for _, f := range findings {
		if d := waivers[waiverKey{f.Pos.Filename, f.Pos.Line, f.Analyzer}]; d != nil {
			d.used++
			continue
		}
		kept = append(kept, f)
	}
	findings = kept

	// Stale-waiver audit. A directive is only audited when its analyzer
	// actually ran this invocation, so `-run` subsets never flag waivers
	// for analyzers they skipped.
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	seen := make(map[*waiverDirective]bool)
	for _, d := range waivers {
		if seen[d] {
			continue
		}
		seen[d] = true
		if ran[d.analyzer] && d.used == 0 {
			findings = append(findings, Finding{
				Pos:      d.pos,
				Analyzer: "directive",
				//repolint:allow allochot formatting one diagnostic per stale directive is not a hot allocation
				Message: fmt.Sprintf("stale waiver: //repolint:allow %s no longer suppresses any finding; remove it", d.analyzer),
			})
		}
	}

	sort.Slice(findings, func(i, j int) bool {
		fi, fj := findings[i], findings[j]
		if fi.Pos.Filename != fj.Pos.Filename {
			return fi.Pos.Filename < fj.Pos.Filename
		}
		if fi.Pos.Line != fj.Pos.Line {
			return fi.Pos.Line < fj.Pos.Line
		}
		if fi.Analyzer != fj.Analyzer {
			return fi.Analyzer < fj.Analyzer
		}
		return fi.Message < fj.Message
	})
	return findings
}

// WriteJSON writes findings as a newline-delimited JSON stream, one
// object per finding, for machine consumption in CI. rel maps absolute
// filenames to the paths that should appear in the output (pass the
// identity function to keep them absolute).
func WriteJSON(w io.Writer, findings []Finding, rel func(string) string) error {
	enc := json.NewEncoder(w)
	for _, f := range findings {
		rec := struct {
			File     string `json:"file"`
			Line     int    `json:"line"`
			Column   int    `json:"column"`
			Analyzer string `json:"analyzer"`
			Symbol   string `json:"symbol,omitempty"`
			Message  string `json:"message"`
			Detail   string `json:"detail,omitempty"`
		}{rel(f.Pos.Filename), f.Pos.Line, f.Pos.Column, f.Analyzer, f.Symbol, f.Message, f.Detail}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return nil
}

type waiverKey struct {
	file     string
	line     int
	analyzer string
}

// waiverDirective is one //repolint:allow comment; used counts how many
// findings it suppressed so the stale-waiver audit can flag dead ones.
type waiverDirective struct {
	pos      token.Position
	analyzer string
	used     int
}

const directivePrefix = "//repolint:allow"

// collectWaivers scans comments for //repolint:allow directives. A
// directive waives the named analyzer on its own line and on the first
// code line at or below it (so it can sit above the flagged statement).
// Both keys map to the same directive record so suppression counts
// accumulate on it.
func collectWaivers(prog *Program, targets []*Package) (map[waiverKey]*waiverDirective, []Finding) {
	waivers := make(map[waiverKey]*waiverDirective)
	var bad []Finding
	for _, pkg := range targets {
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, directivePrefix) {
						continue
					}
					pos := prog.Fset.Position(c.Pos())
					rest := strings.TrimSpace(strings.TrimPrefix(c.Text, directivePrefix))
					name, reason, _ := strings.Cut(rest, " ")
					if _, ok := AnalyzerByName(name); !ok || strings.TrimSpace(reason) == "" {
						//repolint:allow allochot cold path: one finding per malformed directive in the tree
						bad = append(bad, Finding{
							Pos:      pos,
							Analyzer: "directive",
							//repolint:allow allochot ditto: diagnostic formatting, not per-package work
							Message: fmt.Sprintf("malformed waiver %q: want //repolint:allow <analyzer> <reason>", c.Text),
						})
						continue
					}
					d := &waiverDirective{pos: pos, analyzer: name}
					waivers[waiverKey{pos.Filename, pos.Line, name}] = d
					waivers[waiverKey{pos.Filename, pos.Line + 1, name}] = d
				}
			}
		}
	}
	return waivers, bad
}

// ---------------------------------------------------------------------
// Shared type helpers used by several analyzers.

// isPkgPath reports whether pkg (possibly nil for the universe scope)
// has exactly the given import path.
func isPkgPath(pkg *types.Package, path string) bool {
	return pkg != nil && pkg.Path() == path
}

// calleeFunc resolves the called function object of a call expression,
// unwrapping parentheses. It returns nil for calls through function
// values or type conversions.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// isConversion reports whether call is a type conversion rather than a
// function call.
func isConversion(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call.Fun]
	return ok && tv.IsType()
}

func typeOf(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// funcResults returns the result tuple of the called function, or nil.
func funcResults(info *types.Info, call *ast.CallExpr) *types.Tuple {
	tv, ok := info.Types[call.Fun]
	if !ok || tv.IsType() {
		return nil
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return nil
	}
	return sig.Results()
}

// pathEnclosing returns the AST node stack from file down to the
// innermost node containing pos.
func pathEnclosing(file *ast.File, pos token.Pos) []ast.Node {
	var path []ast.Node
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if n.Pos() <= pos && pos < n.End() {
			path = append(path, n)
			return true
		}
		return false
	})
	return path
}
