// Outside the deterministic zone (no internal/<sim...> in the import
// path) maporder stays silent: CLI reporting tools may iterate maps and
// print, emit or collect in whatever order they like.
package tools

import (
	"probe"
)

func reportAll(pr *probe.Probe, sizes map[int]int64) {
	for rank := range sizes {
		pr.Emit(probe.Event{Rank: rank})
	}
}

func Keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
