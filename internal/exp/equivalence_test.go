package exp

import (
	"testing"

	"collio/internal/fcoll"
	"collio/internal/platform"
	"collio/internal/trace"
	"collio/internal/workload/ior"
	"collio/internal/workload/tileio"
)

// TestDataSymbolicEquivalence runs the same collective job with real
// byte buffers and with symbolic payloads and requires bit-identical
// trace digests plus identical per-rank phase totals. This is what
// licenses the symbolic fast path in fcoll (skipping pack/unpack/staging
// bookkeeping for payloads without backing bytes): the two modes may
// differ only in host-side copies, never in simulated time.
func TestDataSymbolicEquivalence(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
	}{
		{"ior/write-comm-2/two-sided", Spec{
			Platform: platform.Crill(), NProcs: 16,
			Gen:       ior.Config{BlockSize: 2 << 20, Segments: 2},
			Algorithm: fcoll.WriteComm2Overlap, Primitive: fcoll.TwoSided, Seed: 7,
		}},
		{"tile/write-comm-2/one-sided-fence", Spec{
			Platform: platform.Crill(), NProcs: 24,
			Gen:       tileio.Config{ElemSize: 1 << 14, ElemsX: 16, ElemsY: 8, Label: "eq"},
			Algorithm: fcoll.WriteComm2Overlap, Primitive: fcoll.OneSidedFence, Seed: 13,
		}},
		{"tile/write-comm-2/hierarchical", Spec{
			Platform: platform.Crill(), NProcs: 96,
			Gen:       tileio.Config{ElemSize: 1 << 10, ElemsX: 8, ElemsY: 8, Label: "eq-hier"},
			Algorithm: fcoll.WriteComm2Overlap, Primitive: fcoll.TwoSided, Hierarchical: true, Seed: 11,
		}},
		{"ior/no-overlap/read", Spec{
			Platform: platform.Crill(), NProcs: 16,
			Gen:       ior.Config{BlockSize: 2 << 20, Segments: 2},
			Algorithm: fcoll.NoOverlap, Primitive: fcoll.TwoSided, Seed: 7, Read: true,
		}},
	}
	phases := []string{trace.PhaseShuffle, trace.PhaseWrite, trace.PhaseRead, trace.PhaseSync}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			run := func(data bool) (*trace.Recorder, Metrics) {
				rec := trace.New()
				spec := c.spec
				spec.DataMode = data
				spec.Trace = rec
				m, err := Execute(spec)
				if err != nil {
					t.Fatal(err)
				}
				return rec, m
			}
			symRec, symM := run(false)
			datRec, datM := run(true)
			if symM != datM {
				t.Errorf("metrics diverge:\n  symbolic: %+v\n  data:     %+v", symM, datM)
			}
			if sd, dd := symRec.Digest(), datRec.Digest(); sd != dd {
				t.Errorf("trace digests diverge: symbolic %s data %s", sd, dd)
			}
			// Per-rank, per-phase virtual-time totals must agree exactly.
			for _, rank := range symRec.Ranks() {
				rank := rank
				byRank := func(rec *trace.Recorder) *trace.Recorder {
					return rec.Filter(func(s trace.Span) bool { return s.Rank == rank })
				}
				sr, dr := byRank(symRec), byRank(datRec)
				for _, ph := range phases {
					if st, dt := sr.PhaseTotal(ph), dr.PhaseTotal(ph); st != dt {
						t.Errorf("rank %d phase %s: symbolic %v data %v", rank, ph, st, dt)
					}
				}
			}
		})
	}
}
