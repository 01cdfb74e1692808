// Fixtures for maporder in the metrics zone (…/internal/metrics):
// samples are folded in a deterministic order, so map-order-dependent
// writes are forbidden here.
package metrics

import "sort"

func badNameCollect(series map[string]int64) []string {
	var names []string
	for n := range series {
		names = append(names, n) // want `append to "names" inside range over map`
	}
	return names
}

// --- near misses: deterministic by construction, must stay silent ---

func goodSortedNames(series map[string]int64) []string {
	names := make([]string, 0, len(series))
	for n := range series {
		names = append(names, n) // order re-established by the sort below
	}
	sort.Strings(names)
	return names
}

func goodMergeShards(dst, shard map[string]int64) {
	for n, v := range shard {
		dst[n] += v // keyed map writes commute across shards
	}
}
