package exp

import (
	"fmt"
	"testing"

	"collio/internal/fcoll"
	"collio/internal/platform"
	"collio/internal/trace"
	"collio/internal/workload"
	"collio/internal/workload/flashio"
	"collio/internal/workload/ior"
	"collio/internal/workload/tileio"
)

// onePerNode returns a noise-free copy of pf with exactly one rank per
// node — the degenerate shape where the hierarchical family's node
// structure collapses: every rank is its own node leader, the
// leaders-only size exchange is the full alltoall, and no request can
// route through a pre-combine (there are no member ranks).
func onePerNode(pf platform.Platform, nodes int) platform.Platform {
	pf = pf.Deterministic()
	pf.Nodes = nodes
	pf.RanksPerNode = 1
	return pf
}

// TestHierarchicalMatchesFlatWhenOneRankPerNode pins the degeneracy
// contract from DESIGN.md §16: with one rank per node the hierarchical
// family must reproduce the flat algorithm bit for bit — same trace
// digest, not merely the same makespan. This is the guard that the
// hierarchical code path is a strict structural extension (leader-set
// sync ladder ≡ full ladder, leader sends ≡ flat sends, empty member
// set) rather than a near-miss approximation of the flat family.
func TestHierarchicalMatchesFlatWhenOneRankPerNode(t *testing.T) {
	cases := []struct {
		name string
		pf   platform.Platform
		gen  workload.Generator
		np   int
	}{
		{"crill-ior", onePerNode(platform.Crill(), 16), ior.Config{BlockSize: 4 << 20, Segments: 2}, 16},
		{"ibex-tile1m", onePerNode(platform.Ibex(), 24), tileio.Tile1M(), 24},
		{"crill-flashio", onePerNode(platform.Crill(), 16), flashio.Default(), 16},
	}
	for _, tc := range cases {
		for _, algo := range fcoll.Algorithms {
			t.Run(fmt.Sprintf("%s/%v", tc.name, algo), func(t *testing.T) {
				digest := func(hier bool) string {
					rec := trace.New()
					_, err := Execute(Spec{
						Platform: tc.pf, NProcs: tc.np, Gen: tc.gen,
						Algorithm: algo, Primitive: fcoll.TwoSided,
						Hierarchical: hier, Seed: 3, Trace: rec,
					})
					if err != nil {
						t.Fatalf("hierarchical=%v: %v", hier, err)
					}
					return rec.Digest()
				}
				flat, hier := digest(false), digest(true)
				if flat != hier {
					t.Errorf("one rank per node must degenerate to the flat path bit-identically:\n  flat %s\n  hier %s", flat, hier)
				}
			})
		}
	}
}

// Pinned trace digests of the hierarchical family proper (ranks per
// node > 1, so leaders really aggregate member traffic): the
// hierarchical counterpart of TestPinnedTraceDigests. Frozen as of
// PR 10; host-side refactors must not move a span. Re-pinned with the
// Bruck setup allgatherv: Elapsed moved by −2.461 ms to +0.016 ms.
var pinnedHierDigests = []pinnedDigest{
	{"hier/write-comm-2-overlap/crill-ior/seed3", "3dab26a0a582cbc9bdb029e6ca8b034634bc0c64030de962d813fd9f599457b5", 402653184},
	{"hier/write-comm-2-overlap/crill-ior/seed7", "218f743b5b23dc3248839a83c7320d77f8b858853ab3372e78f918dec7e2a88c", 402653184},
	{"hier/no-overlap/crill-ior/seed3", "d61479314126fb0ecab3d34c051daceb15bf5a2e447d05048da7a5ba9af3af56", 402653184},
	{"hier/write-comm-2-overlap/ibex-tile1m/seed3", "2e98e358fcdf209728b1381945e4145bd88c84f9492f63051ec19e8e5157495f", 2684354560},
	{"hier/comm-overlap/ibex-tile1m/seed7", "6975c4c1602a6ef5a0f0be780e984a85501ae65acc4eb8c0535944ab5e5f930a", 2684354560},
	{"hier/write-comm-2-overlap/crill-tile256/seed5", "81dc32cd8b445ee531c75f7ab06553cc9ed101de3c06e2f5255c763bde21361c", 1610612736},
	{"hier/write-overlap/ibex-flashio/seed9", "4b67ff16bee950c88f19ec17bad186533ea7e445dcad7381e852bfc426a3dccf", 38584320},
}

// pinnedHierSpecs rebuilds the spec matrix behind pinnedHierDigests in
// table order.
func pinnedHierSpecs() []Spec {
	iorGen := ior.Config{BlockSize: 4 << 20, Segments: 2}
	crill := platform.Crill()
	ibex := platform.Ibex()
	mk := func(pf platform.Platform, gen workload.Generator, algo fcoll.Algorithm, seed int64, np int) Spec {
		return Spec{
			Platform: pf, NProcs: np, Gen: gen,
			Algorithm: algo, Primitive: fcoll.TwoSided,
			Hierarchical: true, Seed: seed,
		}
	}
	return []Spec{
		mk(crill, iorGen, fcoll.WriteComm2Overlap, 3, 48),
		mk(crill, iorGen, fcoll.WriteComm2Overlap, 7, 48),
		mk(crill, iorGen, fcoll.NoOverlap, 3, 48),
		mk(ibex, tileio.Tile1M(), fcoll.WriteComm2Overlap, 3, 80),
		mk(ibex, tileio.Tile1M(), fcoll.CommOverlap, 7, 80),
		mk(crill, tileio.Tile256(), fcoll.WriteComm2Overlap, 5, 96),
		mk(ibex, flashio.Default(), fcoll.WriteOverlap, 9, 80),
	}
}

// TestPinnedHierarchicalDigests replays the hierarchical spec matrix
// and requires every trace digest to match its PR 10 value bit for bit.
func TestPinnedHierarchicalDigests(t *testing.T) {
	specs := pinnedHierSpecs()
	if len(specs) != len(pinnedHierDigests) {
		t.Fatalf("spec matrix has %d entries, pinned table %d", len(specs), len(pinnedHierDigests))
	}
	for i, spec := range specs {
		spec := spec
		want := pinnedHierDigests[i]
		t.Run(want.name, func(t *testing.T) {
			rec := trace.New()
			spec.Trace = rec
			m, err := Execute(spec)
			if err != nil {
				t.Fatal(err)
			}
			if m.BytesWritten != want.bytes {
				t.Errorf("bytes written %d, pinned %d", m.BytesWritten, want.bytes)
			}
			if got := rec.Digest(); got != want.digest {
				t.Errorf("hierarchical trace digest diverged from the pinned PR 10 baseline:\n  got:  %s\n  want: %s\n"+
					"Host-side changes must not move simulated time. If a model-semantics "+
					"change is intended, regenerate the table and say so in the PR.", got, want.digest)
			}
		})
	}
}

// TestHierarchicalBundledFallsBackExact pins the satellite contract
// that a Bundle request on a hierarchical spec drops to the exact path
// bit-identically: the executor decision (routeFor) excludes the hierarchical family
// (its leader store-and-forward breaks the symmetric-cohort collapse),
// so Bundle:true must be a silent no-op, not an approximation.
func TestHierarchicalBundledFallsBackExact(t *testing.T) {
	base := Spec{
		Platform: platform.Ibex().Deterministic(), NProcs: 80,
		Gen:       tileio.Tile1M(),
		Algorithm: fcoll.WriteComm2Overlap, Primitive: fcoll.TwoSided,
		Hierarchical: true, Seed: 3,
	}
	digest := func(bundle bool) (string, Result) {
		rec := trace.New()
		s := base
		s.Bundle = bundle
		s.Trace = rec
		m, err := Execute(s)
		if err != nil {
			t.Fatalf("bundle=%v: %v", bundle, err)
		}
		return rec.Digest(), m
	}
	exactD, exactM := digest(false)
	bundD, bundM := digest(true)
	if exactD != bundD {
		t.Errorf("Bundle:true on a hierarchical spec must fall back to exact execution bit-identically:\n  exact   %s\n  bundled %s", exactD, bundD)
	}
	if exactM != bundM {
		t.Errorf("fallback results diverged:\n  exact   %+v\n  bundled %+v", exactM, bundM)
	}
}
