// Command repolint runs the project's custom static-analysis suite: a
// registry of analyzers, built only on the standard library's go/parser,
// go/ast and go/types, that machine-check the study's safety invariants
// — sanitize-before-store taint flow, lock copies, leaked context
// cancels, dropped I/O errors, wall-clock reads in deterministic
// simulation code, the flow-sensitive concurrency invariants (goroutine
// exit ties, module-wide lock ordering, bounded spawns in loops), and
// the value-flow determinism and resource-safety checks (map-order
// leaks, seed derivation, Closer leaks, deadline domination) built on
// the internal/lint/cfg control-flow and def-use layers.
//
// Usage:
//
//	repolint [-list] [-run analyzer[,analyzer]] [-format text|json|sarif]
//	         [-baseline file] [-write-baseline file] [packages]
//
// Packages default to ./... relative to the working directory. In the
// default text format findings print one per line as
//
//	file:line: [analyzer] message
//
// With -format=json each finding is one JSON object on its own line
// ({"file","line","column","analyzer","symbol","message","detail"}),
// and with -format=sarif the whole report is a SARIF 2.1.0 document
// for CI annotation upload; the human summary still goes to stderr.
// -format=effects is a debug dump instead of a findings run: one line
// per function in the target packages with its inferred effect summary
// (the L4 lattice), `pkg.Func: ReadsClock|Blocking{net}`.
//
// -why takes a finding ID, `analyzer@file:line` with the file relative
// to the working directory, and prints the full interprocedural blame
// chain (call path and effect origin, one file:line per hop) for that
// finding. Effect- and taint-based findings carry chains; for others
// -why reports that no chain is recorded.
//
// -baseline applies the committed ratchet file: findings covered by a
// baseline allowance (keyed analyzer+file+symbol) are suppressed, so
// only *new* findings fail the build while pre-existing ones are burned
// down. -write-baseline regenerates that file from the current tree.
//
// Exit status: 0 on a clean tree, 1 when analyzer findings remain, 2 on
// usage or load/parse errors, and 3 when the only remaining findings
// are stale-waiver hygiene findings (a //repolint:allow that no longer
// suppresses anything).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("repolint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list registered analyzers and exit")
	only := fs.String("run", "", "comma-separated subset of analyzers to run (default: all)")
	format := fs.String("format", "text", "output format: text, json (newline-delimited objects) or sarif")
	baselinePath := fs.String("baseline", "", "suppress findings covered by this baseline file (the ratchet)")
	writeBaseline := fs.String("write-baseline", "", "write the current findings as a baseline file and exit 0")
	why := fs.String("why", "", "print the blame chain for one finding, identified as analyzer@file:line")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *format != "text" && *format != "json" && *format != "sarif" && *format != "effects" {
		fmt.Fprintf(stderr, "repolint: unknown format %q (want text, json, sarif or effects)\n", *format)
		return 2
	}

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(stdout, "%-20s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers := lint.Analyzers()
	if *only != "" {
		analyzers = nil
		for _, name := range strings.Split(*only, ",") {
			a, ok := lint.AnalyzerByName(strings.TrimSpace(name))
			if !ok {
				fmt.Fprintf(stderr, "repolint: unknown analyzer %q\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "repolint: %v\n", err)
		return 2
	}
	prog, targets, err := lint.LoadProgram(cwd, fs.Args())
	if err != nil {
		fmt.Fprintf(stderr, "repolint: %v\n", err)
		return 2
	}
	if *format == "effects" {
		if err := lint.WriteEffects(stdout, lint.EffectSummaries(prog, targets)); err != nil {
			fmt.Fprintf(stderr, "repolint: %v\n", err)
			return 2
		}
		return 0
	}

	findings := lint.Run(prog, targets, analyzers)
	relpath := func(name string) string {
		rel, err := filepath.Rel(cwd, name)
		if err != nil || strings.HasPrefix(rel, "..") {
			return name
		}
		return filepath.ToSlash(rel)
	}

	if *why != "" {
		return explainFinding(stdout, stderr, findings, relpath, *why)
	}

	if *writeBaseline != "" {
		b := lint.NewBaseline(findings, relpath)
		if err := lint.WriteBaselineFile(*writeBaseline, b); err != nil {
			fmt.Fprintf(stderr, "repolint: %v\n", err)
			return 2
		}
		fmt.Fprintf(stderr, "repolint: wrote %d baseline entr%s covering %d finding(s) to %s\n",
			len(b.Entries), plural(len(b.Entries), "y", "ies"), len(findings), *writeBaseline)
		return 0
	}

	suppressed := 0
	if *baselinePath != "" {
		b, err := lint.ReadBaselineFile(*baselinePath)
		if err != nil {
			fmt.Fprintf(stderr, "repolint: %v\n", err)
			return 2
		}
		findings, suppressed = lint.ApplyBaseline(b, findings, relpath)
	}

	switch *format {
	case "json":
		if err := lint.WriteJSON(stdout, findings, relpath); err != nil {
			fmt.Fprintf(stderr, "repolint: %v\n", err)
			return 2
		}
	case "sarif":
		if err := lint.WriteSARIF(stdout, findings, relpath); err != nil {
			fmt.Fprintf(stderr, "repolint: %v\n", err)
			return 2
		}
	default:
		for _, f := range findings {
			fmt.Fprintf(stdout, "%s:%d: [%s] %s\n", relpath(f.Pos.Filename), f.Pos.Line, f.Analyzer, f.Message)
		}
	}
	if suppressed > 0 {
		fmt.Fprintf(stderr, "repolint: %d baselined finding(s) suppressed\n", suppressed)
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "repolint: %d finding(s) in %d package(s)\n", len(findings), len(targets))
		if staleWaiversOnly(findings) {
			return 3
		}
		return 1
	}
	return 0
}

// explainFinding resolves a -why finding ID (analyzer@file:line, file
// relative to the working directory) and prints the finding with its
// recorded blame chain. It runs before the baseline is applied, so
// baselined findings can be explained too.
func explainFinding(stdout, stderr io.Writer, findings []lint.Finding, relpath func(string) string, id string) int {
	analyzer, loc, ok := strings.Cut(id, "@")
	file, lineStr, ok2 := strings.Cut(loc, ":")
	line, err := strconv.Atoi(lineStr)
	if !ok || !ok2 || err != nil {
		fmt.Fprintf(stderr, "repolint: malformed finding ID %q (want analyzer@file:line)\n", id)
		return 2
	}
	for _, f := range findings {
		if f.Analyzer != analyzer || f.Pos.Line != line || filepath.ToSlash(relpath(f.Pos.Filename)) != filepath.ToSlash(file) {
			continue
		}
		fmt.Fprintf(stdout, "%s:%d: [%s] %s\n", relpath(f.Pos.Filename), f.Pos.Line, f.Analyzer, f.Message)
		if f.Detail != "" {
			fmt.Fprintf(stdout, "    %s\n", f.Detail)
		} else {
			fmt.Fprintf(stdout, "    (no blame chain recorded for this finding)\n")
		}
		return 0
	}
	fmt.Fprintf(stderr, "repolint: no finding matches %q\n", id)
	return 2
}

// staleWaiversOnly reports whether every remaining finding is waiver
// hygiene (a stale //repolint:allow) rather than an analyzer finding —
// worth its own exit code so CI can treat "clean tree, dead waiver" as
// a different failure from a real regression.
func staleWaiversOnly(findings []lint.Finding) bool {
	for _, f := range findings {
		if f.Analyzer != "directive" || !strings.HasPrefix(f.Message, "stale waiver:") {
			return false
		}
	}
	return true
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}
