package main

import (
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/par"
	"repro/internal/sanitize"
)

// TestPlantedFormsReadBack pins plantedForms to the text corpus.TypoEmail
// writes around each identifier: the leak check is only as good as the
// identifiers it reads back.
func TestPlantedFormsReadBack(t *testing.T) {
	for _, f := range plantedForms {
		for k := 0; k < 50; k++ {
			msg := corpus.TypoEmail(par.Rand(1, k), "a@gmail.com", "b@ohtlook.com", []sanitize.Kind{f.kind})
			id, ok := f.read(msg.Body)
			if !ok {
				t.Fatalf("%s: no identifier read back from %q", f.kind, msg.Body)
			}
			if strings.ContainsAny(id, " \n") || !strings.Contains(msg.Body, id) {
				t.Fatalf("%s: read back %q from %q", f.kind, id, msg.Body)
			}
		}
	}
}

func TestTokenIndex(t *testing.T) {
	for _, c := range []struct {
		text, id string
		want     int
	}{
		{"number is Da4136.", "Da4136", 10},
		{"Da4136", "Da4136", 0},
		{"<*email*7da4136c715f*>", "da4136", -1},
		{"xDa4136 and Da4136!", "Da4136", 12},
		{"ssn 078051120x", "078051120", -1},
	} {
		if got := tokenIndex([]byte(c.text), []byte(c.id)); got != c.want {
			t.Errorf("tokenIndex(%q, %q) = %d, want %d", c.text, c.id, got, c.want)
		}
	}
}
