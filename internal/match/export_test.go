package match

// DFADisabled reports whether pattern id's DFA has exhausted its state
// budget and handed every decision to the probe.
func (e *Engine) DFADisabled(id int) bool {
	d := e.pats[id].d
	return d != nil && d.disabled.Load()
}
