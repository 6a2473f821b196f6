package match

import "regexp"

// Oracle returns the stdlib regexp for pattern id — the reference the
// engine is proven equivalent to.
func (e *Engine) Oracle(id int) *regexp.Regexp { return e.pats[id].re }

// DFADisabled reports whether pattern id's DFA has exhausted its state
// budget and handed every decision to the probe.
func (e *Engine) DFADisabled(id int) bool {
	d := e.pats[id].d
	return d != nil && d.disabled.Load()
}
