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
// (Elapsed 147.086 -> 116.956 ms).
type pinnedDigest struct {
	name   string
	digest string
	bytes  int64
}

var pinnedDigests = []pinnedDigest{
	{"write/no-overlap/two-sided/ior", "93762b61abb494eca057d27b81da4b40d2b47bdf90214fd5e56f36b491dd9977", 134217728},
	{"write/comm-overlap/two-sided/ior", "81992452913635ac0267f8127ed3fa87665ddda74d9709b738abe2938391ec64", 134217728},
	{"write/write-overlap/two-sided/ior", "07af6bb838d82f7c4cfd27c23617d3dc331b6d0ca67a8d03f2d83159bbb27aa3", 134217728},
	{"write/write-comm-overlap/two-sided/ior", "4596f2c2f75a842ed935e8baf38bed7cb120871afadb85a7ba8c100d98a12681", 134217728},
	{"write/write-comm-2-overlap/two-sided/ior", "07af6bb838d82f7c4cfd27c23617d3dc331b6d0ca67a8d03f2d83159bbb27aa3", 134217728},
	{"write/write-comm-2-overlap/one-sided-fence/ior", "079744280171fe29c141ac5cd2e398916982d2ae9b60079e82f775a61c06d8eb", 134217728},
	{"write/write-comm-2-overlap/one-sided-lock/ior", "a71a5ef609eea42f8b19d38f1e5630a67e523822d91125fe5661a339f1ebee20", 134217728},
	{"write/write-comm-2-overlap/one-sided-pscw/ior", "1082b4e00375b56259dd8f3a8b55957a6f53c32ff31e9981fab8cd7cf0b843a5", 134217728},
	{"read/no-overlap/two-sided/ior", "3bccde82c45c3eac9c227fd8e49463946af4ec9ba222793a5afc6c4ba79ea853", 134217728},
	{"read/comm-overlap/two-sided/ior", "26bdd47ce278f582ab62372978c2dbd018b7f5bb8ac2d29618f42d2872ee4dd7", 134217728},
	{"read/write-overlap/two-sided/ior", "15817a4f316e50f11a5a9f8125ce3dd6123b46f15a46e791b3bbef1f0e5ce924", 134217728},
	{"read/write-comm-overlap/two-sided/ior", "8f8d3fad98ab957369cd8a2c4228c6f083d0bb6ddaffc4c2859f448148bfb4e4", 134217728},
	{"read/write-comm-2-overlap/two-sided/ior", "fa6673d34b9d3e3724cff72d38ed84b214b592b07482acc363d80473933e1b50", 134217728},
	{"write/write-comm-2-overlap/two-sided/tile-ibex", "3731dd42a7f09806cfddc6cf85ad23d1431997105abca51a08d3004f88b92a34", 268435456},
	{"write/no-overlap/two-sided/tile-ibex", "cc15c93981aa816e7dbef05f1977abaf3f7a289580acd8afc5683d923ccea379", 268435456},
	{"write/write-comm-2-overlap/one-sided-fence/tile-crill", "08e057cbba8b0f447a4e078b0b5c24bc6b72ebeb724a61ba7a949edb23d686f8", 201326592},
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
