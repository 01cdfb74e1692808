package tune

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"collio/internal/exp"
	"collio/internal/platform"
	"collio/internal/workload/ior"
)

// TestStoreRoundTrip: Put → Flush → OpenStore returns the same
// entries, including extreme int64 values (bit-exact JSON round trip).
func TestStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	s, entries, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("fresh store has %d entries", len(entries))
	}
	want := map[exp.Digest]exp.Result{
		{1}: {Elapsed: 1<<62 + 3, ShuffleTime: -7, WriteTime: 42, BytesWritten: 9e18, Cycles: 11, Aggregators: 2},
		{2}: {},
	}
	for d, r := range want {
		if err := s.Put(d, r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, got, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if len(got) != len(want) {
		t.Fatalf("reloaded %d entries, want %d", len(got), len(want))
	}
	for d, r := range want {
		if got[d] != r {
			t.Errorf("digest %s: reloaded %+v, want %+v", d, got[d], r)
		}
	}
	if s2.Len() != len(want) {
		t.Errorf("Len = %d, want %d", s2.Len(), len(want))
	}
}

// TestStoreDropsTornTail: a truncated final line (killed mid-append)
// is dropped silently; an interior corruption is an error.
func TestStoreDropsTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	s, _, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(exp.Digest{1}, exp.Result{Elapsed: 5}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(whole, []byte(`{"v":1,"dig`)...), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, entries, err := OpenStore(path)
	if err != nil {
		t.Fatalf("torn tail should load cleanly: %v", err)
	}
	s2.Close()
	if len(entries) != 1 {
		t.Fatalf("got %d entries, want the 1 intact record", len(entries))
	}

	if err := os.WriteFile(path, append([]byte("garbage\n"), whole...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenStore(path); err == nil {
		t.Fatal("interior corruption loaded without error")
	}
}

// TestStoreTruncatesTornTailBeforeAppend pins the crash-recovery
// contract across THREE generations of the file: a process killed
// mid-append leaves a torn trailing line; the next OpenStore must not
// just skip it on read but truncate it away, so that its own appends
// land on a record boundary. (The original implementation appended
// after the fragment, welding the new record onto the garbage and
// turning a recoverable torn tail into a fatal interior-corruption
// error on the third open — found live when a killed evalsuite run
// poisoned its own cache file.)
func TestStoreTruncatesTornTailBeforeAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	s, _, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(exp.Digest{1}, exp.Result{Elapsed: 5}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(whole, []byte(`{"v":1,"dig`)...), 0o644); err != nil {
		t.Fatal(err)
	}

	// Second generation: open over the torn tail, append a record.
	s2, entries, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("got %d entries, want 1", len(entries))
	}
	if err := s2.Put(exp.Digest{2}, exp.Result{Elapsed: 7}); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	// Third generation: both records must load, no corruption error.
	s3, entries, err := OpenStore(path)
	if err != nil {
		t.Fatalf("store corrupted by appending after a torn tail: %v", err)
	}
	defer s3.Close()
	if len(entries) != 2 {
		t.Fatalf("got %d entries, want 2", len(entries))
	}
	if got := entries[exp.Digest{2}]; got.Elapsed != 7 {
		t.Fatalf("appended record reloaded as %+v", got)
	}
}

// TestStoreTerminatesUnterminatedTail: an intact final record that
// lacks only its newline is kept, and the next append starts a new
// line. Without that, the append glues onto the record, the next open
// drops the glued line as a torn tail, and both records vanish.
func TestStoreTerminatesUnterminatedTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	s, _, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(exp.Digest{1}, exp.Result{Elapsed: 5}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, bytes.TrimSuffix(whole, []byte("\n")), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, entries, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("got %d entries, want 1", len(entries))
	}
	if err := s2.Put(exp.Digest{2}, exp.Result{Elapsed: 7}); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	s3, entries, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if len(entries) != 2 {
		t.Fatalf("got %d entries, want 2", len(entries))
	}
	if entries[exp.Digest{1}].Elapsed != 5 || entries[exp.Digest{2}].Elapsed != 7 {
		t.Fatalf("reloaded %+v", entries)
	}
}

// TestStoreSkipsOtherVersions: records with a different layout version
// are skipped on load, not misread.
func TestStoreSkipsOtherVersions(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	d := exp.Digest{3}
	line := `{"v":99,"digest":"` + d.String() + `","elapsed_ns":1}` + "\n"
	if err := os.WriteFile(path, []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	s, entries, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if len(entries) != 0 {
		t.Fatalf("version-99 record was loaded: %v", entries)
	}
}

// childStoreEnv tells the re-exec'd test binary which store file to
// populate in TestCrossProcessCacheChild.
const childStoreEnv = "COLLIO_TUNE_CHILD_STORE"

// TestCrossProcessCacheChild is the helper half of
// TestCrossProcessCacheHit: run only in the re-exec'd child process,
// where it cold-sweeps the reference question into the store file
// named by the environment.
func TestCrossProcessCacheChild(t *testing.T) {
	path := os.Getenv(childStoreEnv)
	if path == "" {
		t.Skip("helper for TestCrossProcessCacheHit")
	}
	tn, err := New(Options{Parallel: 1, CachePath: path})
	if err != nil {
		t.Fatal(err)
	}
	sel, err := tn.Select(ior.Default(), platform.Crill(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Hits != 0 {
		t.Fatalf("child expected a cold sweep, got %d hits", sel.Hits)
	}
	if err := tn.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCrossProcessCacheHit: an on-disk cache written by one process is
// hit bit-identically by a fresh process. The child (a re-exec of this
// test binary) cold-sweeps into a store file; the parent computes the
// same sweep in memory for reference, then opens the child's store and
// verifies a fully-warm Select with Result-for-Result identical
// answers.
func TestCrossProcessCacheHit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	cmd := exec.Command(os.Args[0], "-test.run=TestCrossProcessCacheChild$", "-test.count=1")
	cmd.Env = append(os.Environ(), childStoreEnv+"="+path)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("child process failed: %v\n%s", err, out)
	}

	ref := NewWithCache(Options{Parallel: 1}, NewCache(nil, nil))
	want, err := ref.Select(ior.Default(), platform.Crill(), 8)
	if err != nil {
		t.Fatal(err)
	}

	tn, err := New(Options{Parallel: 1, CachePath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer tn.Close()
	got, err := tn.Select(ior.Default(), platform.Crill(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if got.Hits != got.Evaluated || got.Hits == 0 {
		t.Fatalf("parent Select should be fully warm from the child's store: %d/%d hits", got.Hits, got.Evaluated)
	}
	if tn.Cache().Stats().Simulations != 0 {
		t.Fatalf("parent simulated despite the warm store")
	}
	if !selectionsEqual(got, want) {
		t.Fatalf("results read from the child's store differ from a fresh in-process sweep")
	}

	// The store is genuinely the cross-process medium: one JSON line
	// per grid point, every digest distinct.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(string(data), "\n")
	if lines != DefaultSpace().Size() {
		t.Errorf("store holds %d records, want %d", lines, DefaultSpace().Size())
	}
}
