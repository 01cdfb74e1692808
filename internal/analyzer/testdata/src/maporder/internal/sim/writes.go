// Fixtures for maporder's order-dependent writes, placed on a
// deterministic-zone import path (…/internal/sim): an append to an
// outer slice, a last-writer-wins store or a string concatenation
// inside a range over a map bakes the iteration order into the result.
package sim

import "sort"

func badMapAppend(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k) // want `append to "out" inside range over map`
	}
	return out
}

func badMapWrite(m map[string]int) int {
	last := 0
	for _, v := range m {
		last = v // want `write to "last" inside range over map`
	}
	return last
}

func badMapConcat(m map[string]int) string {
	s := ""
	for k := range m {
		s += k // want `string concatenation onto "s" inside range over map`
	}
	return s
}

// --- near misses: deterministic by construction, must stay silent ---

func goodSortedCollect(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k) // order re-established by the sort below
	}
	sort.Strings(keys)
	return keys
}

func goodCommutative(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v // numeric accumulation commutes
	}
	return total
}

func goodKeyedWrites(m map[int]int, arr []int) map[int]bool {
	seen := map[int]bool{}
	for k, v := range m {
		seen[k] = true // map insert keyed by range var
		arr[k] = v     // distinct cells indexed by range key
	}
	return seen
}
