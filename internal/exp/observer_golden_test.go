package exp

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"collio/internal/fcoll"
	"collio/internal/metrics"
	"collio/internal/platform"
	"collio/internal/probe"
	"collio/internal/sim"
	"collio/internal/trace"
	"collio/internal/workload/ior"
)

// observerCell is one spec of the observer golden matrix.
type observerCell struct {
	name string
	spec Spec
}

// observerCells covers every executor and every phase cause the
// collective engine reports: exact two-sided writes under two overlap
// algorithms, both one-sided synchronisation
// flavours, two collective reads, two hierarchical cells (the flashio one
// pre-combines on its leaders), two bundled cells (chunked, and fluid-model with
// per-member milestones) and one partitioned (-jrun 2) cell.
func observerCells() []observerCell {
	byName := func(name string) Spec {
		for _, s := range pinnedSpecs() {
			if s.name == name {
				return s.spec
			}
		}
		panic("no pinned spec " + name)
	}
	var cells []observerCell
	for _, name := range []string{
		"write/no-overlap/two-sided/ior",
		"write/write-comm-2-overlap/two-sided/ior",
		"write/write-comm-2-overlap/one-sided-fence/ior",
		"write/write-comm-2-overlap/one-sided-lock/ior",
		"read/no-overlap/two-sided/ior",
		"read/write-comm-2-overlap/two-sided/ior",
	} {
		cells = append(cells, observerCell{name, byName(name)})
	}
	hier := pinnedHierSpecs()
	cells = append(cells,
		observerCell{"hier/write-comm-2-overlap/crill-tile256/seed5", hier[5]},
		observerCell{"hier/write-overlap/ibex-flashio/seed9", hier[6]})
	for _, c := range bundledGoldenCells() {
		if c.name == "ibex/ior/write-comm-2-overlap" || c.name == "crill-flow/flashio/write-comm-2-overlap" {
			spec := c.spec
			spec.Bundle = true
			cells = append(cells, observerCell{"bundled/" + c.name, spec})
		}
	}
	pf := platform.Crill().Deterministic()
	pf.RanksPerNode = 4
	cells = append(cells, observerCell{"jrun2/crill/ior/write-comm-2-overlap", Spec{
		Platform: pf, NProcs: 32, Gen: ior.Config{BlockSize: 1 << 20, Segments: 2},
		Algorithm: fcoll.WriteComm2Overlap, Seed: 1, JRun: 2,
	}})
	return cells
}

// observedRun executes spec with a trace, a probe and a metrics sink
// attached.
func observedRun(t *testing.T, spec Spec) (*trace.Recorder, *probe.Probe, *metrics.Metrics) {
	t.Helper()
	spec.Trace, spec.Probe, spec.Metrics = trace.New(), probe.New(), metrics.New(0)
	if _, err := Execute(spec); err != nil {
		t.Fatal(err)
	}
	return spec.Trace, spec.Probe, spec.Metrics
}

// eventsDigest is a SHA-256 over every field of every probe event, in
// emission order.
func eventsDigest(evs []probe.Event) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for _, e := range evs {
		put(int64(e.At))
		put(int64(e.Dur))
		put(int64(e.Layer))
		put(int64(e.Kind))
		put(int64(e.Cause))
		put(int64(e.Rank))
		put(int64(e.Peer))
		put(int64(e.Cycle))
		put(e.Size)
		put(e.V)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func sha(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// observerGolden pins the four observer views of one cell: the trace
// digest, the full probe event stream, the probe counters and the
// metrics dump.
type observerGolden struct {
	name, trace, events, counters, metrics string
}

// observerGoldens is the frozen output of TestObserverGolden over
// observerCells, one row per cell in matrix order.
var observerGoldens = []observerGolden{
	{"write/no-overlap/two-sided/ior", "93762b61abb494eca057d27b81da4b40d2b47bdf90214fd5e56f36b491dd9977", "3c018aeafe34dc0f48fada5fa0d915de9349f73e7152254f4ee080c68ea0d4ab", "f331ebd27db2c348c1dba93fe4ce675ef47d46cc998ee1b8df3f6f65b644dbb3", "b3d4cd7ad5260e3eb23dd09698fb387bcc646d052a81bf7abcde6661442f36ca"},
	{"write/write-comm-2-overlap/two-sided/ior", "07af6bb838d82f7c4cfd27c23617d3dc331b6d0ca67a8d03f2d83159bbb27aa3", "8a166673fdd008bdd1116b1e36aff53cb4e13f355101b67a700ea6c9a4f1a9dd", "fbb987fb602e4de786ace087e8d70956d01d189b7b26b1eefeb03de0acaba4e7", "466cd0a70077419d52c6372f7b4c4867823669c681e042631b4929208bf647d0"},
	{"write/write-comm-2-overlap/one-sided-fence/ior", "079744280171fe29c141ac5cd2e398916982d2ae9b60079e82f775a61c06d8eb", "6fc935523be9968ed4d3bb300f237d55c3f82f15824b9f09c1301f8ca2096d05", "a10ea292c7684931a73bfc71a7bcd5c30cdf595270b5746da6e842fbd89d2d42", "b76a6b867e6bcd4630eed59ed43ade41fd942b2ad2f3032078257a5dd082bc76"},
	{"write/write-comm-2-overlap/one-sided-lock/ior", "a71a5ef609eea42f8b19d38f1e5630a67e523822d91125fe5661a339f1ebee20", "8d992c68204d63d6e24a94790bcc6224dbb3104ac25f1af7d2d281d0c174c225", "6bc5901f959341632e8ba749d65edaa5df6266d4522bb13d89a55fffe6a11870", "b67ae4f695014e35a930684571745ba36352a4ab3ee14cfdd8c7606d3f044139"},
	{"read/no-overlap/two-sided/ior", "3bccde82c45c3eac9c227fd8e49463946af4ec9ba222793a5afc6c4ba79ea853", "1cceb2881c13c7f860ffa78e81ccba87b074e6f6aa7547b5cd3b8e4e7c54eb9e", "4251625c6318c8c9a167d88f5809f156d6a79a5c059e9aa991c89770a541525f", "95fa98a3a6cb86e868b2454f28a2ce934eb3bfee082e28121a5ae98657b3248b"},
	{"read/write-comm-2-overlap/two-sided/ior", "fa6673d34b9d3e3724cff72d38ed84b214b592b07482acc363d80473933e1b50", "53a42fe12b41a3d6f2c8c48bcc723bdab28fd2703e2cb4fba03210f2dc5cd67d", "c2f65df0dbf300aaaf42777c942c6615d87a6c0780d92b019c453c502b09eca1", "54fa3d1eafcc869899cfa3cadec7c5f28b497b2a7828a160f87527980bf97346"},
	{"hier/write-comm-2-overlap/crill-tile256/seed5", "65f4aabec11f528de9a362606959ea7cc35ac6c30d2f585514dcaca018c89aa1", "6f295d5ad1e7dd1e81bb2e9075fc807fcc1216f2953b81de7b33defc25d12aee", "c82464c002c08028cf7717863a0a4af809a462277585c9277cda6e4d1ae5483d", "34fb7273ae14dd8be384ce7eb18f96d401cfea28010ab7fb8fc30f55c2293fa1"},
	{"hier/write-overlap/ibex-flashio/seed9", "e04340b2ded3f02abda2fe986a2372433df33b61860ef86dd30c8a60ce2442a5", "58b0cddccb4154013f5c612c0d206630ef495dc99baf642657f7e91b0e3ce5a4", "62402676529122ed78687039b8937caf047437ed201e6d537e69560768b5f8b4", "d1bfb83b811a251b74accbcec83962983a3a0d95626d24d722cb74e59924a6e1"},
	{"bundled/ibex/ior/write-comm-2-overlap", "195ba145ad817c85fe6d1f3b017d25aad62f2aade6cb437011636715a0129139", "55869cfd86f86d1040e274c556886aae234b77dd27a6e8182443fa43f2953e48", "3d813c014ce2b4b93bd182a2fa43e3909ad693032b18ca5410da3bacd7ddb049", "ff250396a30c212e8705740d593db9314dff421522b04a7462c5c6b2a0465d48"},
	{"bundled/crill-flow/flashio/write-comm-2-overlap", "4e084e05afc7ba8fcde774996d85cbf05a0b43e02b855d5559e5ed78a1d2632d", "ab156c4c1220df23e2bb9713d7a2630ec85999e5d8299f494fbee54930ea68af", "80be58414bef53c708d1e26999023aebc74c68516b35b618cc84abde2cfdd9f3", "d25614fb4372248344374c37d8a220bea5ed2c1531e60b2a5192d81cca04ce90"},
	{"jrun2/crill/ior/write-comm-2-overlap", "71fae507b35e280b13680fb4a85c75ec7e3db8e4ef2581b716d15fed4b9ef65f", "41299b01311c3dbce8f9db14c644621875a54a73737b78d9dbf41b0578ae3638", "972c87dba0807fde2528aac1db258198d4c80d3b719f48246dfb939c845bbdf5", "03ad305aad5b8ac8efb5597f3327d68b04922dadedcc928c73802239a7aeee42"},
}

// TestObserverGolden pins every observer view of observerCells bit for
// bit, and requires a trace-only run to record the same trace as a run
// with all three sinks attached.
func TestObserverGolden(t *testing.T) {
	cells := observerCells()
	if len(cells) != len(observerGoldens) {
		t.Errorf("matrix has %d cells, golden table %d", len(cells), len(observerGoldens))
	}
	for i, cell := range cells {
		cell := cell
		t.Run(cell.name, func(t *testing.T) {
			tr, p, met := observedRun(t, cell.spec)
			got := observerGolden{cell.name, tr.Digest(), eventsDigest(p.Events()), sha(countersDump(p)), sha(met.Dump())}
			if i >= len(observerGoldens) || observerGoldens[i] != got {
				t.Errorf("observer views diverged from the golden table; got\n\t%s",
					fmt.Sprintf("{%q, %q, %q, %q, %q},", got.name, got.trace, got.events, got.counters, got.metrics))
			}
			only := cell.spec
			only.Trace = trace.New()
			if _, err := Execute(only); err != nil {
				t.Fatal(err)
			}
			if d := only.Trace.Digest(); d != got.trace {
				t.Errorf("trace-only run digests %s, fully observed run %s", d, got.trace)
			}
		})
	}
}

// TestThreeViewsAgree requires the trace, the probe and the metrics sink
// to report the same phase structure on every observer golden cell: for
// each phase cause, the trace total, the summed probe KindPhase spans
// and the metrics phase-occupancy total match, and the span count equals
// the phase histogram's count. Pre-combine is not a trace phase and is
// checked against probe and metrics only.
func TestThreeViewsAgree(t *testing.T) {
	causes := []struct {
		cause probe.Cause
		name  string // metrics series and trace phase
		trace bool
	}{
		{probe.CauseShuffle, trace.PhaseShuffle, true},
		{probe.CauseWrite, trace.PhaseWrite, true},
		{probe.CauseRead, trace.PhaseRead, true},
		{probe.CauseSync, trace.PhaseSync, true},
		{probe.CausePreCombine, "precombine", false},
	}
	var precombined bool
	for _, cell := range observerCells() {
		cell := cell
		t.Run(cell.name, func(t *testing.T) {
			tr, p, met := observedRun(t, cell.spec)
			totals := map[probe.Cause]sim.Time{}
			counts := map[probe.Cause]int64{}
			for _, e := range p.Events() {
				if e.Layer == probe.LayerFcoll && e.Kind == probe.KindPhase {
					totals[e.Cause] += e.Dur
					counts[e.Cause]++
				}
			}
			for _, c := range causes {
				pr := totals[c.cause]
				if c.trace {
					if got := tr.PhaseTotal(c.name); got != pr {
						t.Errorf("%s: trace total %v, probe total %v", c.name, got, pr)
					}
				}
				if got := met.Gauge(metrics.PhaseRank(c.name), metrics.ModeSum).Total(); sim.Time(got) != pr {
					t.Errorf("%s: metrics total %v, probe total %v", c.name, sim.Time(got), pr)
				}
				if got := met.Hist(metrics.PhaseHist(c.name)).Count(); got != counts[c.cause] {
					t.Errorf("%s: histogram count %d, probe spans %d", c.name, got, counts[c.cause])
				}
			}
			// Non-vacuous: the cell's defining phases were observed.
			want := []probe.Cause{probe.CauseShuffle, probe.CauseSync, probe.CauseWrite}
			if cell.spec.Read {
				want[2] = probe.CauseRead
			}
			for _, c := range want {
				if totals[c] <= 0 {
					t.Errorf("no %v spans observed", c)
				}
			}
			precombined = precombined || totals[probe.CausePreCombine] > 0
		})
	}
	if !precombined {
		t.Error("no cell observed a pre-combine span")
	}
}
