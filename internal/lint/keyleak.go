package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/lint/cfg"
)

// KeyLeakAnalyzer enforces the paper's §4.1/§4.2.2 exposure contract on
// every output channel: vault key material, raw honeytokens, and
// pre-sanitize email content or addresses must not reach the encrypted
// vault (vault.Put stores what the sanitizer produced, never a raw
// capture), the process log, stdout/stderr, error strings, network
// writes, or plaintext files. The only blessed escapes are the
// internal/sanitize seam and the crypto seams (hashing a value before
// showing it is exactly the hashed-token-only reporting rule).
//
// The analysis runs on the cfg package's value-propagation layer:
// provenance tags spring from typed sources (vault.Key, honey.Token and
// its carrier structs) and from the content-bearing fields of the raw
// message types — field-sensitively, so msg.Body is tainted while a
// study-domain field of the same struct is not. Per-function summaries
// ("parameter i flows to sink S", "parameter i flows to the result",
// "the result intrinsically carries tag T") are computed to a fixpoint
// across the whole program by seeding every parameter with a distinct
// synthetic tag in a single propagation pass, so a leak three calls
// deep is reported at the call site that handed the value in.
var KeyLeakAnalyzer = &Analyzer{
	Name: "keyleak",
	Doc:  "flags vault key material, raw honeytokens, and pre-sanitize email/address values reaching vault, log, stream, error-string, network or file sinks outside the sanitize and crypto seams",
	Run:  runKeyleak,
}

// Provenance tag kinds, ordered by reporting severity.
const (
	tagVaultKey   = "vault-key"
	tagHoneyToken = "honey-token"
	tagRawEmail   = "raw-email"
	tagRawAddr    = "raw-addr"
)

var keyleakSeverity = []string{tagVaultKey, tagHoneyToken, tagRawEmail, tagRawAddr}

var keyleakNoun = map[string]string{
	tagVaultKey:   "vault key material",
	tagHoneyToken: "a raw honeytoken value",
	tagRawEmail:   "pre-sanitize message content",
	tagRawAddr:    "a pre-sanitize address value",
}

// rawMessageTypes are the module-relative package and type names whose
// values carry unsanitized captured content.
var rawMessageTypes = map[string][]string{
	"internal/mailmsg":    {"Message", "Attachment"},
	"internal/smtpd":      {"Envelope"},
	"internal/spamfilter": {"Email"},
}

// rawFieldTags is the field-sensitivity table: for each raw struct, the
// content-bearing fields and the tag they carry. Any other field of the
// same struct (study domains, timestamps, TLS state) is metadata and
// reads clean.
var rawFieldTags = map[string]map[string]string{
	"internal/mailmsg.Message": {
		"Subject": tagRawEmail, "Body": tagRawEmail, "HTMLBody": tagRawEmail,
		"Attachments": tagRawEmail, "header": tagRawEmail,
	},
	"internal/mailmsg.Attachment": {
		"Filename": tagRawEmail, "Data": tagRawEmail,
	},
	"internal/smtpd.Envelope": {
		"Data": tagRawEmail, "MailFrom": tagRawAddr, "Rcpts": tagRawAddr, "HelloName": tagRawAddr,
	},
	"internal/spamfilter.Email": {
		"Msg": tagRawEmail, "RcptAddr": tagRawAddr, "SenderAddr": tagRawAddr,
	},
	// The beacon's hit record embeds the token, but its observation
	// metadata (kind, remote address, timestamp) is exactly what reports
	// are allowed to show next to a hashed token.
	"internal/honey.Access": {
		"Token": tagHoneyToken,
	},
}

// honeyTokenTypes are the internal/honey types whose values embed or
// derive from a mintable token.
var honeyTokenTypes = map[string]bool{
	"Token": true, "Credentials": true, "Bait": true, "Access": true,
}

// keyleakExemptPackages (module-relative) handle the protected values
// by design and are neither reporting targets nor summary sources: the
// vault owns the key and the sanitizer owns raw content.
var keyleakExemptPackages = []string{
	"internal/vault",
	"internal/sanitize",
}

// keyleakWirePackage is the SMTP client, the experiment's transmission
// boundary: writing message bytes to the wire is its entire purpose
// (§3 probe sending), so its connection writes are a seam, not a leak,
// and so are the errors that report that SMTP exchange (the dialed
// address, a refused recipient, the server's reply). Its log, stdout,
// file and vault sinks are checked like any other package's.
const keyleakWirePackage = "internal/smtpc"

func runKeyleak(pass *Pass) {
	if pkgInList(pass.Prog.Module, pass.Pkg.Path, keyleakExemptPackages) {
		return
	}
	st := pass.Prog.analyzerState("keyleak", func() any {
		return newKeyleakState(pass.Prog)
	}).(*keyleakState)
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			for _, hit := range st.results[fd] {
				pass.Reportf(hit.pos, "%s", hit.msg)
			}
		}
	}
}

// keyleakState is the per-Program fixpoint state.
type keyleakState struct {
	prog        *Program
	sanitizePkg string
	vaultPkg    string

	paramToSink map[*types.Func]map[int]string
	// paramToResult maps a parameter index to the set of result indices
	// its content can reach; resultTags maps a result index to the tags
	// the result intrinsically carries. Both are result-position precise
	// so `msg, err := Parse(raw)` taints msg without smearing err.
	paramToResult map[*types.Func]map[int]map[int]bool
	resultTags    map[*types.Func]map[int]map[string]bool

	flows   map[*ast.BlockStmt]*funcFlow // round-invariant cfg layers
	results map[*ast.FuncDecl][]klHit    // final-round intrinsic findings
}

type klHit struct {
	pos token.Pos
	msg string
}

func newKeyleakState(prog *Program) *keyleakState {
	st := &keyleakState{
		prog:          prog,
		sanitizePkg:   prog.Module + "/internal/sanitize",
		vaultPkg:      prog.Module + "/internal/vault",
		paramToSink:   make(map[*types.Func]map[int]string),
		paramToResult: make(map[*types.Func]map[int]map[int]bool),
		resultTags:    make(map[*types.Func]map[int]map[string]bool),
		flows:         make(map[*ast.BlockStmt]*funcFlow),
		results:       make(map[*ast.FuncDecl][]klHit),
	}
	for round := 0; round < 10; round++ {
		changed := false
		for _, pkg := range prog.Packages {
			if pkgInList(prog.Module, pkg.Path, keyleakExemptPackages) {
				continue
			}
			for _, file := range pkg.Files {
				for _, decl := range file.Decls {
					fd, ok := decl.(*ast.FuncDecl)
					if !ok || fd.Body == nil {
						continue
					}
					if st.summarize(pkg, fd) {
						changed = true
					}
				}
			}
		}
		if !changed {
			break
		}
	}
	return st
}

// flowOf caches the graph and def-use layers, which do not change
// between fixpoint rounds (only the summaries the eval hook consults do).
func (st *keyleakState) flowOf(pkg *Package, body *ast.BlockStmt) *funcFlow {
	if ff, ok := st.flows[body]; ok {
		return ff
	}
	ff := newFuncFlow(pkg, body)
	st.flows[body] = ff
	return ff
}

// summarize re-analyzes one function against the current summaries,
// folds what it learns back in, and reports whether anything changed.
// The intrinsic (real-tag) hits recorded for the final round are what
// runKeyleak reports.
func (st *keyleakState) summarize(pkg *Package, fd *ast.FuncDecl) bool {
	fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
	hits, retTags := st.analyzeFunc(pkg, fd, fn)

	var intrinsic []klHit
	seen := make(map[klHit]bool)
	changed := false
	for _, h := range hits {
		real := realTags(h.tags)
		if len(real) > 0 {
			hit := klHit{h.pos, keyleakMessage(real, h.desc, h.via)}
			if !seen[hit] {
				seen[hit] = true
				intrinsic = append(intrinsic, hit)
			}
		}
		if fn == nil {
			continue
		}
		for _, t := range h.tags {
			i, ok := paramTagIndex(t)
			if !ok {
				continue
			}
			if st.paramToSink[fn] == nil {
				st.paramToSink[fn] = make(map[int]string)
			}
			if _, dup := st.paramToSink[fn][i]; !dup {
				st.paramToSink[fn][i] = h.desc
				changed = true
			}
		}
	}
	st.results[fd] = intrinsic

	if fn != nil {
		for ridx, tags := range retTags {
			for t := range tags {
				if i, ok := paramTagIndex(t); ok {
					if st.paramToResult[fn] == nil {
						st.paramToResult[fn] = make(map[int]map[int]bool)
					}
					if st.paramToResult[fn][i] == nil {
						st.paramToResult[fn][i] = make(map[int]bool)
					}
					if !st.paramToResult[fn][i][ridx] {
						st.paramToResult[fn][i][ridx] = true
						changed = true
					}
				} else {
					if st.resultTags[fn] == nil {
						st.resultTags[fn] = make(map[int]map[string]bool)
					}
					if st.resultTags[fn][ridx] == nil {
						st.resultTags[fn][ridx] = make(map[string]bool)
					}
					if !st.resultTags[fn][ridx][t] {
						st.resultTags[fn][ridx][t] = true
						changed = true
					}
				}
			}
		}
	}
	return changed
}

// keyleakMessage renders one finding: the most severe tag wins, and a
// hit through a callee summary names the forwarding function.
func keyleakMessage(tags []string, sink, via string) string {
	noun := ""
	for _, k := range keyleakSeverity {
		for _, t := range tags {
			if t == k {
				noun = keyleakNoun[k]
				break
			}
		}
		if noun != "" {
			break
		}
	}
	if noun == "" {
		noun = "protected data"
	}
	if via != "" {
		return noun + " flows into " + via + ", which passes it to " + sink +
			"; sanitize or hash it first"
	}
	return noun + " reaches " + sink +
		"; route it through internal/sanitize or a crypto digest first"
}

// klSinkHit is one sink reached by a tagged value during analysis.
type klSinkHit struct {
	pos  token.Pos
	desc string // sink description
	via  string // forwarding callee name, "" for direct sinks
	tags []string
}

// analyzeFunc runs one value-propagation pass over fd (outer body plus
// nested literals) with every parameter seeded, returning the sink hits
// and the tags of returned values by result position.
func (st *keyleakState) analyzeFunc(pkg *Package, fd *ast.FuncDecl, fn *types.Func) ([]klSinkHit, map[int]map[string]bool) {
	pidx := paramObjects(fn)
	nres := 0
	if fn != nil {
		if sig, ok := fn.Type().(*types.Signature); ok {
			nres = sig.Results().Len()
		}
	}
	var hits []klSinkHit
	retTags := make(map[int]map[string]bool)
	addRet := func(idx int, tags []string) {
		if len(tags) == 0 {
			return
		}
		if retTags[idx] == nil {
			retTags[idx] = make(map[string]bool)
		}
		for _, t := range tags {
			retTags[idx][t] = true
		}
	}
	for _, body := range bodiesIn(fd) {
		ff := st.flowOf(pkg, body)
		pf := newPropFlow(pkg, ff, func(vp *cfg.ValueProp, stmt ast.Stmt, e ast.Expr) (cfg.Value, bool) {
			return st.eval(pkg, ff, pidx, vp, stmt, e)
		})
		pf.vp.EvalDef = func(d *cfg.DefSite) (cfg.Value, bool) {
			return st.evalDefSite(pkg, pf.vp, d)
		}
		outer := body == fd.Body
		shallowNodesWithStmt(body, ff.g, func(stmt ast.Stmt, n ast.Node) {
			switch x := n.(type) {
			case *ast.CallExpr:
				hits = append(hits, st.checkCall(pkg, pf, stmt, x)...)
			case *ast.ReturnStmt:
				if !outer {
					return
				}
				if len(x.Results) == nres {
					for i, r := range x.Results {
						addRet(i, pf.Value(stmt, r).Tags())
					}
					return
				}
				// `return f()` forwarding a tuple (or a naked return of
				// named results): smear over every position.
				for _, r := range x.Results {
					tags := pf.Value(stmt, r).Tags()
					for i := 0; i < nres; i++ {
						addRet(i, tags)
					}
				}
			}
		})
	}
	return hits, retTags
}

// evalDefSite applies per-result-position callee summaries at tuple
// bindings, where the expression-level hook cannot know which position
// the variable takes.
func (st *keyleakState) evalDefSite(pkg *Package, vp *cfg.ValueProp, d *cfg.DefSite) (cfg.Value, bool) {
	if d.TupleIndex < 0 || d.Rhs == nil || d.FromRange {
		return cfg.Value{}, false
	}
	call, ok := ast.Unparen(d.Rhs).(*ast.CallExpr)
	if !ok {
		return cfg.Value{}, false
	}
	info := pkg.Info
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || !strings.HasPrefix(fn.Pkg().Path(), st.prog.Module+"/") {
		return cfg.Value{}, false
	}
	if pkgInList(st.prog.Module, fn.Pkg().Path(), keyleakExemptPackages) || isCryptoSeam(fn.Pkg()) {
		return cfg.Value{}, false // structural rules read seams as clean
	}
	tags := make(map[string]bool)
	for t := range st.resultTags[fn][d.TupleIndex] {
		tags[t] = true
	}
	for p, ridxs := range st.paramToResult[fn] {
		if !ridxs[d.TupleIndex] {
			continue
		}
		if arg := argForParamIndex(call, p); arg != nil {
			for _, t := range vp.ValueOf(d.Stmt, arg).Tags() {
				tags[t] = true
			}
		}
	}
	if recv := recvOperand(call); recv != nil {
		if res := funcResults(info, call); res != nil && d.TupleIndex < res.Len() &&
			carrierType(res.At(d.TupleIndex).Type()) {
			for _, t := range vp.ValueOf(d.Stmt, recv).Tags() {
				tags[t] = true
			}
		}
	}
	return cfg.TaggedValue(sortedTags(tags)...), true
}

// checkCall reports the tagged values reaching call, both when call is
// itself a sink and when a callee summary says a parameter flows to one.
func (st *keyleakState) checkCall(pkg *Package, pf *propFlow, stmt ast.Stmt, call *ast.CallExpr) []klSinkHit {
	info := pkg.Info
	fn := calleeFunc(info, call)
	var hits []klSinkHit
	if desc, args := st.sinkArgs(pkg, fn, call); desc != "" {
		tags := make(map[string]bool)
		for _, a := range args {
			for _, t := range pf.Value(stmt, a).Tags() {
				tags[t] = true
			}
		}
		if len(tags) > 0 {
			hits = append(hits, klSinkHit{call.Pos(), desc, "", sortedTags(tags)})
		}
	}
	if fn != nil {
		if summ := st.paramToSink[fn]; len(summ) > 0 {
			idxs := make([]int, 0, len(summ))
			for i := range summ {
				idxs = append(idxs, i)
			}
			sort.Ints(idxs)
			for _, i := range idxs {
				arg := argForParamIndex(call, i)
				if arg == nil {
					continue
				}
				if tags := pf.Value(stmt, arg).Tags(); len(tags) > 0 {
					hits = append(hits, klSinkHit{call.Pos(), summ[i], fn.Name(), tags})
				}
			}
		}
	}
	return hits
}

func sortedTags(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// eval is the value-propagation hook: typed sources, parameter seeding,
// field sensitivity on the raw structs, seams, and call summaries.
func (st *keyleakState) eval(pkg *Package, ff *funcFlow, pidx map[types.Object]int, vp *cfg.ValueProp, stmt ast.Stmt, e ast.Expr) (cfg.Value, bool) {
	info := pkg.Info
	if tag := st.sourceTypeTag(typeOf(info, e)); tag != "" {
		return cfg.TaggedValue(tag), true
	}
	switch x := e.(type) {
	case *ast.Ident:
		obj := info.Uses[x]
		if obj == nil {
			obj = info.Defs[x]
		}
		if i, ok := pidx[obj]; ok {
			// Seed only while the parameter is ambient; once reassigned,
			// the def-use chase judges the new value.
			if lv := localVar(info, x); lv != nil && stmt != nil {
				if len(ff.du.DefsReaching(stmt, lv)) > 0 {
					return cfg.Value{}, false
				}
			}
			return cfg.TaggedValue(paramTag(i)), true
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[x]; ok && sel.Kind() == types.FieldVal {
			if owner := st.rawStructOf(sel.Recv()); owner != "" {
				if tag := rawFieldTags[owner][x.Sel.Name]; tag != "" {
					return cfg.TaggedValue(tag), true
				}
				// Metadata field of a raw struct: clean by field sensitivity.
				return cfg.UnknownValue(), true
			}
			// A boolean or numeric field (a verdict enum, a count) cannot
			// carry message text, whatever struct it lives in.
			if contentFreeResult(typeOf(info, x)) {
				return cfg.UnknownValue(), true
			}
		}
	case *ast.CallExpr:
		return st.evalCall(pkg, vp, stmt, x)
	}
	return cfg.Value{}, false
}

// evalCall decides what a call's result carries.
func (st *keyleakState) evalCall(pkg *Package, vp *cfg.ValueProp, stmt ast.Stmt, call *ast.CallExpr) (cfg.Value, bool) {
	info := pkg.Info
	if isConversion(info, call) && len(call.Args) == 1 {
		return vp.ValueOf(stmt, call.Args[0]), true
	}
	if isBuiltinCall(info, call, "len", "cap") {
		return cfg.UnknownValue(), true
	}
	fn := calleeFunc(info, call)
	if fn == nil {
		// Call through a function value: the structural default (join of
		// argument provenance) is the conservative answer.
		return cfg.Value{}, false
	}
	fpkg := fn.Pkg()
	switch {
	case fpkg != nil && pkgInList(st.prog.Module, fpkg.Path(), keyleakExemptPackages), isCryptoSeam(fpkg):
		// Laundering seams: sanitized, decrypted-from-sanitized, or
		// digested values are clean. (A call whose result type is itself a
		// source — vault.DeriveKey returning a Key — was already claimed by
		// the typed-source rule.)
		return cfg.UnknownValue(), true
	case fpkg != nil && strings.HasPrefix(fpkg.Path(), st.prog.Module+"/"):
		// Whole-call value: the join over every result position. Tuple
		// bindings get the position-precise answer from evalDefSite.
		tags := make(map[string]bool)
		for _, byIdx := range st.resultTags[fn] {
			for t := range byIdx {
				tags[t] = true
			}
		}
		for i, ridxs := range st.paramToResult[fn] {
			if len(ridxs) == 0 {
				continue
			}
			if arg := argForParamIndex(call, i); arg != nil {
				for _, t := range vp.ValueOf(stmt, arg).Tags() {
					tags[t] = true
				}
			}
		}
		// A method on a tagged receiver whose result can carry content
		// keeps the receiver's provenance (covers interface methods and
		// accessors without useful summaries).
		if recv := recvOperand(call); recv != nil && carrierType(typeOf(info, call)) {
			for _, t := range vp.ValueOf(stmt, recv).Tags() {
				tags[t] = true
			}
		}
		return cfg.TaggedValue(sortedTags(tags)...), true
	case isContentPropagatingStdlib(fpkg) && !contentFreeResult(typeOf(info, call)):
		tags := make(map[string]bool)
		for _, a := range call.Args {
			for _, t := range vp.ValueOf(stmt, a).Tags() {
				tags[t] = true
			}
		}
		if recv := recvOperand(call); recv != nil {
			for _, t := range vp.ValueOf(stmt, recv).Tags() {
				tags[t] = true
			}
		}
		return cfg.TaggedValue(sortedTags(tags)...), true
	}
	// Any other out-of-module call: results are clean.
	return cfg.UnknownValue(), true
}

// sinkArgs classifies a call as an output sink and returns the operands
// that must be clean. An empty description means not a sink.
func (st *keyleakState) sinkArgs(pkg *Package, fn *types.Func, call *ast.CallExpr) (string, []ast.Expr) {
	info := pkg.Info
	if fn == nil {
		return "", nil
	}
	name := fn.Name()
	wire := pkgInList(st.prog.Module, pkg.Path, []string{keyleakWirePackage})
	switch {
	case isPkgPath(fn.Pkg(), st.vaultPkg) && name == "Put" && len(call.Args) > 0:
		// Put(domain, verdict string, received time.Time, plaintext []byte)
		return "the encrypted vault (vault.Put)", call.Args[len(call.Args)-1:]
	case isPkgPath(fn.Pkg(), "log"):
		switch name {
		case "Print", "Printf", "Println", "Fatal", "Fatalf", "Fatalln",
			"Panic", "Panicf", "Panicln", "Output":
			return "the process log (log." + name + ")", call.Args
		}
	case isPkgPath(fn.Pkg(), "fmt"):
		switch name {
		case "Print", "Printf", "Println":
			return "stdout (fmt." + name + ")", call.Args
		case "Fprint", "Fprintf", "Fprintln":
			if len(call.Args) > 0 && (isStdStream(info, call.Args[0]) || !wire && hasSetDeadline(typeOf(info, call.Args[0]))) {
				return "a stream or connection write (fmt." + name + ")", call.Args[1:]
			}
		case "Errorf":
			if !wire {
				return "an error string (fmt.Errorf)", call.Args
			}
		}
	case isPkgPath(fn.Pkg(), "errors") && name == "New" && !wire:
		return "an error string (errors.New)", call.Args
	case isPkgPath(fn.Pkg(), "os") && name == "WriteFile":
		if len(call.Args) >= 2 {
			return "a plaintext file (os.WriteFile)", call.Args[1:2]
		}
	case !wire && (name == "Write" || name == "WriteString"):
		// Conn/file writes: any receiver with a SetDeadline method (net
		// conns, *os.File, the faultnet wrappers).
		if recv := recvOperand(call); recv != nil && hasSetDeadline(typeOf(info, recv)) && len(call.Args) >= 1 {
			return "a network or file write (" + name + ")", call.Args[:1]
		}
	}
	return "", nil
}

// isStdStream reports whether e is os.Stdout or os.Stderr.
func isStdStream(info *types.Info, e ast.Expr) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj, ok := info.Uses[sel.Sel]
	if !ok || obj.Pkg() == nil {
		return false
	}
	return obj.Pkg().Path() == "os" && (obj.Name() == "Stdout" || obj.Name() == "Stderr")
}

// carrierType reports whether t can carry message content onward:
// strings, byte slices, and containers of them.
func carrierType(t types.Type) bool {
	switch u := t.(type) {
	case nil:
		return false
	case *types.Basic:
		return u.Info()&types.IsString != 0
	case *types.Slice:
		return isByte(u.Elem()) || carrierType(u.Elem())
	case *types.Array:
		return isByte(u.Elem()) || carrierType(u.Elem())
	case *types.Map:
		return carrierType(u.Elem())
	case *types.Pointer:
		return carrierType(u.Elem())
	case *types.Named:
		return carrierType(u.Underlying())
	case *types.Tuple:
		for i := 0; i < u.Len(); i++ {
			if carrierType(u.At(i).Type()) {
				return true
			}
		}
	}
	return false
}

func isByte(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Uint8)
}

// isCryptoSeam reports whether pkg is one of the hashing/crypto
// packages whose outputs are, by §4's hashed-token rule, safe to show.
func isCryptoSeam(pkg *types.Package) bool {
	if pkg == nil {
		return false
	}
	path := pkg.Path()
	return path == "hash" || strings.HasPrefix(path, "hash/") ||
		path == "crypto" || strings.HasPrefix(path, "crypto/")
}

// sourceTypeTag maps a type to the provenance tag its values
// intrinsically carry: the vault key, the honey token family, and the
// raw message structs (through pointers, slices, arrays and maps).
func (st *keyleakState) sourceTypeTag(t types.Type) string {
	switch u := t.(type) {
	case nil:
		return ""
	case *types.Pointer:
		return st.sourceTypeTag(u.Elem())
	case *types.Slice:
		return st.sourceTypeTag(u.Elem())
	case *types.Array:
		return st.sourceTypeTag(u.Elem())
	case *types.Map:
		return st.sourceTypeTag(u.Elem())
	case *types.Named:
		obj := u.Obj()
		if obj.Pkg() == nil {
			return ""
		}
		rel, ok := strings.CutPrefix(obj.Pkg().Path(), st.prog.Module+"/")
		if !ok {
			return ""
		}
		switch {
		case rel == "internal/vault" && obj.Name() == "Key":
			return tagVaultKey
		case rel == "internal/honey" && honeyTokenTypes[obj.Name()]:
			return tagHoneyToken
		}
		for _, name := range rawMessageTypes[rel] {
			if obj.Name() == name {
				return tagRawEmail
			}
		}
	}
	return ""
}

// rawStructOf returns the rawFieldTags key for t when t is (or points
// to) one of the field-sensitive raw structs, else "".
func (st *keyleakState) rawStructOf(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	rel, ok := strings.CutPrefix(named.Obj().Pkg().Path(), st.prog.Module+"/")
	if !ok {
		return ""
	}
	key := rel + "." + named.Obj().Name()
	if _, ok := rawFieldTags[key]; ok {
		return key
	}
	return ""
}
