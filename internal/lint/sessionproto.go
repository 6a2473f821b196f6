package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// SessionProtoAnalyzer (L5) checks SMTP session ordering on both ends
// of the wire. On the client (smtpc.textConn) the command sequence
// must follow smtpClientProtocol — banner read, HELO/EHLO, optional
// STARTTLS + re-EHLO, MAIL, RCPT..., DATA, payload, final reply, QUIT.
// On the server (smtpd.sessionConn) smtpServerProtocol requires the
// reply (banner included) to be written before any read. Both ends
// additionally require every session event to sit under a phase
// deadline: the event method must itself reach a Set*Deadline (up to
// three calls deep) or be dominated by a deadline definition in the
// caller — a probe session that can block forever stalls the whole
// measurement (paper §3.2's bounded-session requirement).
var SessionProtoAnalyzer = &Analyzer{
	Name: "sessionproto",
	Doc:  "SMTP session ordering (client command sequence, server reply-before-read) and phase-deadline coverage",
	Run:  runSessionProto,
}

func runSessionProto(pass *Pass) {
	switch strings.TrimPrefix(pass.Pkg.Path, pass.Prog.Module+"/") {
	case "internal/smtpc":
		runProtoTracker(pass, &protoTracker{
			proto:   smtpClientProtocol,
			tracked: sessionClientType,
			eventOf: smtpClientEvent,
		})
		runSessionDeadlines(pass, "textConn", smtpClientEvent)
	case "internal/smtpd":
		runProtoTracker(pass, &protoTracker{
			proto:   smtpServerProtocol,
			tracked: sessionServerType,
			eventOf: smtpServerEvent,
		})
		runSessionDeadlines(pass, "sessionConn", smtpServerEvent)
	}
}

func sessionClientType(pass *Pass, pkgPath, typeName string) bool {
	return strings.TrimPrefix(pkgPath, pass.Prog.Module+"/") == "internal/smtpc" && typeName == "textConn"
}

func sessionServerType(pass *Pass, pkgPath, typeName string) bool {
	return strings.TrimPrefix(pkgPath, pass.Prog.Module+"/") == "internal/smtpd" && typeName == "sessionConn"
}

// smtpClientEvent maps a textConn method call to a protocol event. The
// cmd helpers carry the verb in their first argument, which is a
// constant-foldable string on every real call site ("MAIL FROM:<" +
// from + ">" folds its leftmost operand).
func smtpClientEvent(pass *Pass, call *ast.CallExpr, method string) string {
	switch method {
	case "readReply", "readMultiReply":
		return "read"
	case "writeData":
		return "payload"
	case "cmd", "cmdMulti", "cmdMultiCode":
		switch smtpVerbOf(pass, call) {
		case "EHLO", "HELO":
			return "hello"
		case "STARTTLS":
			return "starttls"
		case "MAIL":
			return "mail"
		case "RCPT":
			return "rcpt"
		case "DATA":
			return "data"
		case "QUIT":
			return "quit"
		}
	}
	return ""
}

// smtpVerbOf extracts the SMTP verb from the first argument of a cmd
// helper call: the leftmost operand of the string-concatenation chain,
// constant-folded, up to the first space.
func smtpVerbOf(pass *Pass, call *ast.CallExpr) string {
	if len(call.Args) == 0 {
		return ""
	}
	e := ast.Unparen(call.Args[0])
	for {
		b, ok := e.(*ast.BinaryExpr)
		if !ok || b.Op != token.ADD {
			break
		}
		e = ast.Unparen(b.X)
	}
	tv, ok := pass.Pkg.Info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return ""
	}
	verb, _, _ := strings.Cut(constant.StringVal(tv.Value), " ")
	return strings.ToUpper(strings.TrimSpace(verb))
}

func smtpServerEvent(_ *Pass, _ *ast.CallExpr, method string) string {
	switch method {
	case "readLine", "readData":
		return "read"
	case "reply", "replyMulti":
		return "reply"
	}
	return ""
}

// runSessionDeadlines is the deadline facet: every session-event call
// site on the tracked connection type must either have a callee that
// reaches a Set*Deadline/Set*Timeout or an AfterFunc-close within three
// calls (deadlineDepth), or be dominated by a deadline definition in the
// calling function (the deadlineflow dominator walk).
func runSessionDeadlines(pass *Pass, typeName string, eventOf func(*Pass, *ast.CallExpr, string) string) {
	info := pass.Pkg.Info
	walkDeadlineSites(pass, func(_ *funcFlow, _ ast.Stmt, call *ast.CallExpr) string {
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || !namedTypeIs(typeOf(info, sel.X), pass.Pkg.Path, typeName) {
			return ""
		}
		ev := eventOf(pass, call, sel.Sel.Name)
		if fn := calleeFunc(info, call); ev != "" && fn != nil && deadlineDepth(pass.Prog, fn) > 0 {
			return ""
		}
		return ev
	}, func(call *ast.CallExpr, ev string) {
		name := "the callee"
		if fn := calleeFunc(info, call); fn != nil {
			name = displayCallee(fn)
		}
		pass.Reportf(call.Pos(),
			"session event %q is not covered by a phase deadline: %s neither sets a Set*Deadline/Set*Timeout itself (three calls deep) nor is dominated by one in the caller",
			ev, name)
	})
}

// namedTypeIs: t (possibly behind one pointer) is the named type
// pkgPath.typeName.
func namedTypeIs(t types.Type, pkgPath, typeName string) bool {
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
	return named.Obj().Pkg().Path() == pkgPath && named.Obj().Name() == typeName
}
