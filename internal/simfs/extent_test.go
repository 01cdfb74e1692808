package simfs

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// sortMergeRef is the written-extent bookkeeping addExtent replaced,
// kept as its oracle: append, sort by offset, merge every neighbour the
// previous one overlaps or touches.
func sortMergeRef(ws []extent, e extent) []extent {
	ws = append(append([]extent(nil), ws...), e)
	sort.Slice(ws, func(i, j int) bool { return ws[i].off < ws[j].off })
	out := ws[:1]
	for _, x := range ws[1:] {
		last := &out[len(out)-1]
		if x.off <= last.end {
			last.end = max(last.end, x.end)
			continue
		}
		out = append(out, x)
	}
	return out
}

// TestAddExtentMatchesSortMerge feeds random extent sequences to
// addExtent and to the append-sort-merge reference and requires the
// same list after every write. A quarter of the extents are aimed to
// end exactly where a recorded extent starts or to start exactly where
// one ends (touching), the rest land anywhere in a small span, so
// overlaps, nesting, repeats and bridges across several extents all
// occur.
func TestAddExtentMatchesSortMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for seq := 0; seq < 2000; seq++ {
		var got, want []extent
		span := 1 + rng.Int63n(300)
		for i, n := 0, 1+rng.Intn(60); i < n; i++ {
			size := 1 + rng.Int63n(1+span/5)
			off := rng.Int63n(span)
			if len(want) > 0 && rng.Intn(4) == 0 {
				w := want[rng.Intn(len(want))]
				off = w.end
				if rng.Intn(2) == 0 && w.off >= size {
					off = w.off - size
				}
			}
			e := extent{off, off + size}
			got = addExtent(got, e)
			want = sortMergeRef(want, e)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("sequence %d, write %d %v:\n got  %v\n want %v", seq, i, e, got, want)
			}
		}
	}
}
