package export

import (
	"bytes"
	"fmt"
	"maps"
	"sort"
	"strings"
	"testing"
)

// FuzzParseProm feeds arbitrary bytes to ParseProm, which metricsdiff
// runs over snapshot files it did not write. Malformed input must come
// back as an error, never a panic, and an accepted snapshot must read
// back unchanged from its canonical rendering, one "key value" line per
// sample. The seed corpus (testdata/fuzz) holds the golden fixture and
// its malformed variants.
func FuzzParseProm(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := ParseProm(bytes.NewReader(data))
		if err != nil {
			return
		}
		keys := make([]string, 0, len(snap))
		for k := range snap {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var b strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&b, "%s %d\n", k, snap[k])
		}
		again, err := ParseProm(strings.NewReader(b.String()))
		if err != nil {
			t.Fatalf("re-parsing the canonical rendering: %v", err)
		}
		if !maps.Equal(again, snap) {
			t.Fatalf("canonical rendering parsed as %v, want %v", again, snap)
		}
	})
}
