package exp

import (
	"fmt"
	"testing"

	"collio/internal/fcoll"
	"collio/internal/platform"
	"collio/internal/trace"
	"collio/internal/workload"
	"collio/internal/workload/ior"
	"collio/internal/workload/tileio"
)

// The pinned-digest table: SHA-256 trace digests of a representative
// spec matrix (every overlap algorithm, every shuffle primitive, the
// collective-read duals, both platforms, contiguous and strided views),
// captured from the tree as of PR 3 and frozen. Host-side refactors of
// the simulator — arena-backed plans, pooled requests and flows,
// symbolic fast paths — must never move a single span: these constants
// make "bit-identical before/after" a regression test instead of a PR
// claim. If a change to *model semantics* is ever intended, the table
// must be regenerated deliberately (see the test failure message).
// The read rows cover every algorithm. read/write-overlap was re-pinned
// when reads moved onto the write drivers (Drive): it now runs
// Algorithm 1's shape with the file read as the non-blocking fill
// (Elapsed 147.086 -> 116.956 ms). Every row was re-pinned when the
// setup's ring allgatherv gave way to the Bruck allgatherv: each run's
// Elapsed fell by 6.4 to 10.3 µs, with bytes and plan shape unchanged.
type pinnedDigest struct {
	name   string
	digest string
	bytes  int64
}

var pinnedDigests = []pinnedDigest{
	{"write/no-overlap/two-sided/ior", "ac68109289889a66ba74463853e2bc05c410b337fb7116449c76c6dc12a5c86a", 134217728},
	{"write/comm-overlap/two-sided/ior", "6d3e9a34d9231331ded3f595474c616c8e019f815eba2faaa134275b881c48ac", 134217728},
	{"write/write-overlap/two-sided/ior", "7a999bba54d3fb569f0b8d1940c12f545f92ab730c61a7addca87d814a2e24f5", 134217728},
	{"write/write-comm-overlap/two-sided/ior", "86fd2b89e972ad00fcb31cc943aa43d7afe0c5bbd0ee720e87047150b62e75dc", 134217728},
	{"write/write-comm-2-overlap/two-sided/ior", "7a999bba54d3fb569f0b8d1940c12f545f92ab730c61a7addca87d814a2e24f5", 134217728},
	{"write/write-comm-2-overlap/one-sided-fence/ior", "f9474b38b9b5ac4c975332bf6d726f9fe6abfb174d8d784f6e65aff42d62d283", 134217728},
	{"write/write-comm-2-overlap/one-sided-lock/ior", "b1e52b5bbfd1aeb310fa1781c243bdcdba678a869a787b75ee75572e49012392", 134217728},
	{"write/write-comm-2-overlap/one-sided-pscw/ior", "1bb9120e4835d93f848589c9fbe54c7e1da30c0e602a0e0ba3ce6043cb0bbbae", 134217728},
	{"read/no-overlap/two-sided/ior", "717c1413da76bd21339a95eb3a959c224bbf536f1243f791c725d3a043a79de1", 134217728},
	{"read/comm-overlap/two-sided/ior", "8d67e6fb0fc9d561be2213a6dbbb66ff33c0d8678ea1f703543a0e60ea1b7eec", 134217728},
	{"read/write-overlap/two-sided/ior", "78f5df8acc96d7a0ba4488f51bb3886a64616ffe1be737d79431a57f9b27bf19", 134217728},
	{"read/write-comm-overlap/two-sided/ior", "cafba70ac55064aa1194ff927999ea447907f5557d391a75746d1853dc969e5a", 134217728},
	{"read/write-comm-2-overlap/two-sided/ior", "1d40e0e8afe46819823a11b83baf7d6f99a984a74f0b37af876ab7a9cef48793", 134217728},
	{"write/write-comm-2-overlap/two-sided/tile-ibex", "81262ab8b7fd0b802602ea5facad3934802fac9242bffb4bb8b14a4ff26d363e", 268435456},
	{"write/no-overlap/two-sided/tile-ibex", "61a4cbd0ba3f176e348d8083cfb941ff4cf00bf43a2e69eb0d3b231ae5aac2e4", 268435456},
	{"write/write-comm-2-overlap/one-sided-fence/tile-crill", "c74cbbd312c3402e07e6d03bc92b761f713ce4e1d008d0c69243aac35800cb40", 201326592},
}

// pinnedSpecs rebuilds the spec matrix behind pinnedDigests in table
// order (the generation logic and the table must enumerate identically).
func pinnedSpecs() []struct {
	name string
	spec Spec
} {
	iorGen := ior.Config{BlockSize: 4 << 20, Segments: 2}
	tile := tileio.Config{ElemSize: 1 << 16, ElemsX: 16, ElemsY: 8, Label: "t"}
	type named = struct {
		name string
		spec Spec
	}
	var out []named
	add := func(name string, pf platform.Platform, gen workload.Generator,
		algo fcoll.Algorithm, prim fcoll.Primitive, read bool, seed int64, np int) {
		out = append(out, named{name, Spec{
			Platform: pf, NProcs: np, Gen: gen,
			Algorithm: algo, Primitive: prim, Seed: seed, Read: read,
		}})
	}
	for _, algo := range fcoll.Algorithms {
		add(fmt.Sprintf("write/%v/two-sided/ior", algo),
			platform.Crill(), iorGen, algo, fcoll.TwoSided, false, 3, 16)
	}
	for _, prim := range fcoll.AllPrimitives[1:] {
		add(fmt.Sprintf("write/write-comm-2-overlap/%v/ior", prim),
			platform.Crill(), iorGen, fcoll.WriteComm2Overlap, prim, false, 3, 16)
	}
	for _, algo := range fcoll.Algorithms {
		add(fmt.Sprintf("read/%v/two-sided/ior", algo),
			platform.Crill(), iorGen, algo, fcoll.TwoSided, true, 5, 16)
	}
	add("write/write-comm-2-overlap/two-sided/tile-ibex",
		platform.Ibex(), tile, fcoll.WriteComm2Overlap, fcoll.TwoSided, false, 9, 32)
	add("write/no-overlap/two-sided/tile-ibex",
		platform.Ibex(), tile, fcoll.NoOverlap, fcoll.TwoSided, false, 9, 32)
	add("write/write-comm-2-overlap/one-sided-fence/tile-crill",
		platform.Crill(), tile, fcoll.WriteComm2Overlap, fcoll.OneSidedFence, false, 11, 24)
	return out
}

// TestPinnedTraceDigests replays the frozen spec matrix and requires
// every trace digest to match its PR 3 value bit for bit.
func TestPinnedTraceDigests(t *testing.T) {
	specs := pinnedSpecs()
	if len(specs) != len(pinnedDigests) {
		t.Fatalf("spec matrix has %d entries, pinned table %d", len(specs), len(pinnedDigests))
	}
	for i, s := range specs {
		s := s
		want := pinnedDigests[i]
		t.Run(s.name, func(t *testing.T) {
			if s.name != want.name {
				t.Fatalf("matrix order drifted: spec %q vs pinned %q", s.name, want.name)
			}
			rec := trace.New()
			spec := s.spec
			spec.Trace = rec
			m, err := Execute(spec)
			if err != nil {
				t.Fatal(err)
			}
			if m.BytesWritten != want.bytes {
				t.Errorf("bytes written %d, pinned %d", m.BytesWritten, want.bytes)
			}
			if got := rec.Digest(); got != want.digest {
				t.Errorf("trace digest diverged from the pinned PR 3 baseline:\n  got:  %s\n  want: %s\n"+
					"Host-side changes must not move simulated time. If a model-semantics "+
					"change is intended, regenerate the table and say so in the PR.", got, want.digest)
			}
		})
	}
}
