package lint

import (
	"fmt"

	"repro/internal/lint/cfg"
)

// Protocol declarations: the typestate layer's semantic input. The
// engine in typestateflow.go is generic over these tables — a new
// lifecycle check is a new table, not a new analyzer. Each table names
// its states and the transition relation over abstract events; the
// analyzers map method calls on tracked objects to events, and any
// event fired in a state with no transition for it is a protocol
// violation (cfg.Machine.Step's rejected component).

// Protocol is one declared finite-state protocol.
type Protocol struct {
	Name   string      // analyzer-facing name ("vault", "smtp-client")
	States []string    // state names; all transitions must use these
	Init   string      // state a fresh acquisition starts in
	Trans  []ProtoEdge // the transition relation
	// Fail explains each event's rejection: what it means for the event
	// to fire in a state with no transition for it.
	Fail map[string]string
	// TrackedImports are the module-relative package paths defining the
	// protocol's tracked types. Only packages that are, or directly
	// import, one of these are analyzed (protoPkgInScope).
	TrackedImports []string
}

// ProtoEdge is one transition: From --On--> To.
type ProtoEdge struct {
	From, On, To string
}

// vaultProtocol is the storage lifecycle (paper §4.1/§4.2.2: the key
// must be unmountable, so nothing may touch a vault after Close). Both
// vault implementations (Vault, LogVault, anything behind Store) and
// core's spill queue and survivor log follow it: mutating and reading
// operations are "use", segment rotation/compaction is "rotate" (only
// legal while open), and Close is idempotent. Pure observers (Len,
// Meta, Stats) are protocol-neutral and stay unmapped.
var vaultProtocol = &Protocol{
	Name:   "vault",
	States: []string{"open", "closed"},
	Init:   "open",
	Trans: []ProtoEdge{
		{"open", "use", "open"},
		{"open", "rotate", "open"},
		{"open", "close", "closed"},
		{"closed", "close", "closed"}, // Close is idempotent
	},
	Fail: map[string]string{
		"use":    "a Put/Get/Export or spill-queue operation on a closed store fails (ErrClosed) or touches released segments",
		"rotate": "segment rotation/compaction must start from the open state: after Close the key is unmounted and segments are sealed",
	},
	TrackedImports: []string{"internal/vault", "internal/core"},
}

// smtpClientProtocol is the client half of RFC 5321 command ordering
// as smtpc drives it: banner read, HELO/EHLO (repeatable — the HELO
// fallback and the post-STARTTLS re-EHLO), MAIL, RCPT (repeatable),
// DATA, payload, final reply, QUIT. STARTTLS returns to the greeted
// state because the hello must be re-sent on the new channel.
//
// mail --DATA--> data is deliberately allowed: a statically-zero-
// iteration RCPT loop merges the mail state into the DATA call site,
// and the accepted==0 early return that rules it out at runtime is a
// value correlation the CFG cannot see.
var smtpClientProtocol = &Protocol{
	Name:   "smtp-client",
	States: []string{"start", "greeted", "hello", "mail", "rcpt", "data", "payload", "done"},
	Init:   "start",
	Trans: []ProtoEdge{
		{"start", "read", "greeted"}, // the 220 banner
		{"greeted", "hello", "hello"},
		{"hello", "hello", "hello"}, // EHLO then HELO fallback
		{"hello", "starttls", "greeted"},
		{"hello", "mail", "mail"},
		{"mail", "rcpt", "rcpt"},
		{"rcpt", "rcpt", "rcpt"},
		{"mail", "data", "data"}, // zero-iteration RCPT loop (see above)
		{"rcpt", "data", "data"},
		{"data", "payload", "payload"},
		{"payload", "read", "done"}, // the final 250
		{"greeted", "quit", "done"},
		{"hello", "quit", "done"},
		{"mail", "quit", "done"},
		{"rcpt", "quit", "done"},
		{"done", "quit", "done"},
	},
	Fail: map[string]string{
		"read":     "a bare reply read belongs to the banner and post-DATA phases only; command replies are consumed by the cmd helpers",
		"hello":    "HELO/EHLO before the banner was read",
		"starttls": "STARTTLS is only legal right after EHLO advertised it",
		"mail":     "MAIL FROM before the HELO/EHLO exchange completed",
		"rcpt":     "RCPT TO outside a MAIL transaction",
		"data":     "DATA before MAIL/RCPT opened a transaction",
		"payload":  "message payload written before the DATA command was accepted",
		"quit":     "QUIT before the banner",
	},
	TrackedImports: []string{"internal/smtpc"},
}

// smtpServerProtocol is the server half's one paper-relevant clause:
// the reply is written before the session advances — in particular the
// 220/421 banner precedes the first command read (reply-before-
// state-advance). The tarpit path never constructs a sessionConn, so
// it is naturally out of scope.
var smtpServerProtocol = &Protocol{
	Name:   "smtp-server",
	States: []string{"fresh", "open"},
	Init:   "fresh",
	Trans: []ProtoEdge{
		{"fresh", "reply", "open"}, // the banner (or the 421 turn-away)
		{"open", "reply", "open"},
		{"open", "read", "open"},
	},
	Fail: map[string]string{
		"read": "the server must write its banner/reply before reading from the client (reply precedes state advance)",
	},
	TrackedImports: []string{"internal/smtpd"},
}

// streamProtocol is the determinism contract's stream-index clause as
// a (degenerate) typestate: each (seed domain, index) slot is an
// object that may be claimed exactly once. streamidx materializes one
// slot per statically-known index and fires "claim" per call site;
// the second claim has no transition and is the collision.
var streamProtocol = &Protocol{
	Name:   "stream",
	States: []string{"unclaimed", "claimed"},
	Init:   "unclaimed",
	Trans: []ProtoEdge{
		{"unclaimed", "claim", "claimed"},
	},
	Fail: map[string]string{
		"claim": "two PRNG sub-stream derivations collide: the same (seed domain, index) yields the same stream, so the outputs are correlated, not independent",
	},
	TrackedImports: []string{"internal/par"},
}

// protoMachine is one compiled protocol: the cfg.Machine plus the
// name<->index mappings the engine and the messages need.
type protoMachine struct {
	p        *Protocol
	m        *cfg.Machine
	stateIdx map[string]cfg.State
	states   []string
	eventIdx map[string]cfg.Event
	events   []string
	init     cfg.State
}

// compileProtocol builds the machine, panicking on a malformed table
// (unknown state names, too many states) so a bad edit fails the first
// test run rather than silently not finding anything.
func compileProtocol(p *Protocol) *protoMachine {
	pm := &protoMachine{
		p:        p,
		stateIdx: make(map[string]cfg.State, len(p.States)),
		states:   p.States,
		eventIdx: make(map[string]cfg.Event),
	}
	for i, s := range p.States {
		if _, dup := pm.stateIdx[s]; dup {
			panic(fmt.Sprintf("lint: protocol %s: duplicate state %q", p.Name, s))
		}
		pm.stateIdx[s] = cfg.State(i)
	}
	event := func(name string) cfg.Event {
		if e, ok := pm.eventIdx[name]; ok {
			return e
		}
		e := cfg.Event(len(pm.events))
		pm.eventIdx[name] = e
		pm.events = append(pm.events, name)
		return e
	}
	for _, t := range p.Trans {
		event(t.On)
	}
	for ev := range p.Fail {
		event(ev)
	}
	init, ok := pm.stateIdx[p.Init]
	if !ok {
		panic(fmt.Sprintf("lint: protocol %s: unknown init state %q", p.Name, p.Init))
	}
	pm.init = init
	pm.m = cfg.NewMachine(len(p.States), len(pm.events))
	for _, t := range p.Trans {
		from, ok := pm.stateIdx[t.From]
		if !ok {
			panic(fmt.Sprintf("lint: protocol %s: unknown state %q", p.Name, t.From))
		}
		to, ok := pm.stateIdx[t.To]
		if !ok {
			panic(fmt.Sprintf("lint: protocol %s: unknown state %q", p.Name, t.To))
		}
		pm.m.AddTransition(from, event(t.On), to)
	}
	return pm
}

// compiledProtocol caches the machine per Program (the tables are
// package-level but tests swap them, so the cache must not outlive a
// load).
func compiledProtocol(prog *Program, p *Protocol) *protoMachine {
	return prog.analyzerState("typestate.machine."+p.Name, func() any {
		return compileProtocol(p)
	}).(*protoMachine)
}

// stateSetNames renders a StateSet with the protocol's state names,
// sorted by state index ("closed", or "mail|rcpt").
func (pm *protoMachine) stateSetNames(ss cfg.StateSet) string {
	out := ""
	for _, s := range ss.States() {
		if out != "" {
			out += "|"
		}
		out += pm.states[s]
	}
	return out
}
