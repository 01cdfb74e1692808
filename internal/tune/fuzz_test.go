package tune

import (
	"maps"
	"os"
	"path/filepath"
	"testing"

	"collio/internal/exp"
)

// FuzzOpenStore writes arbitrary bytes as a store file and opens it,
// as a sweep does with a cache file a killed or foreign process may
// have left behind. Malformed input must come back as an error, never a
// panic. An accepted file is left on a record boundary: a record the
// store appends loads back on the next open, beside every entry the
// first open returned. The seed corpus (testdata/fuzz) holds the torn
// and unterminated tails of TestStoreDropsTornTail and
// TestStoreTerminatesUnterminatedTail.
func FuzzOpenStore(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "cache.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, entries, err := OpenStore(path)
		if err != nil {
			return
		}
		d, r := exp.Digest{0xc0, 0x11, 0x10}, exp.Result{Elapsed: 42, Cycles: 3}
		if err := s.Put(d, r); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s2, again, err := OpenStore(path)
		if err != nil {
			t.Fatalf("reopening after an append: %v", err)
		}
		s2.Close()
		want := maps.Clone(entries)
		want[d] = r
		if !maps.Equal(again, want) {
			t.Fatalf("reopened store holds %v, want %v", again, want)
		}
	})
}
