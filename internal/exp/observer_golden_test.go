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
// observerCells, one row per cell in matrix order. Re-pinned with the
// Bruck setup allgatherv: Elapsed moved by −2.461 ms to +0.778 ms (the
// jrun 2 cell); the fcoll, fs and mpi byte counters did not move.
var observerGoldens = []observerGolden{
	{"write/no-overlap/two-sided/ior", "ac68109289889a66ba74463853e2bc05c410b337fb7116449c76c6dc12a5c86a", "a17416b69c95890f126ed5d57b50b45ad2993c10e924e377b3ef61ba000e2da2", "851b20dd5ec55ffc5ac1db6d4d9fdebf93ec6116c0f1c746f2ce6f25ab44fafb", "47515dc1960080f3a258ffd8f19498f3c2101a929578b53c0736dffdbcd0d2a4"},
	{"write/write-comm-2-overlap/two-sided/ior", "7a999bba54d3fb569f0b8d1940c12f545f92ab730c61a7addca87d814a2e24f5", "3836225bfb616f34d86dd2e0b38feeb3aa3c1398dabd82ab5341eca1f3c26c97", "1f3a56411f08957ae83d953ef9c38217240f38348956c1a3f2d2217dcee15b3a", "3651fe4bf97e921aa61c199560715faa7c543b8de0e65cf1fd09daa66cc5bd5b"},
	{"write/write-comm-2-overlap/one-sided-fence/ior", "f9474b38b9b5ac4c975332bf6d726f9fe6abfb174d8d784f6e65aff42d62d283", "624e710017c0726bac22eb364e2ebfe46585b8ef8b338530dc46d4bd4fb6340a", "2022a28c6144908fb2e51a6b4601e2af269757bcf593b4f4f15f7fbb87a10a42", "a09b747511d15a36176b0557d31a0f836b1d8a2433163fa18ec0515952d21170"},
	{"write/write-comm-2-overlap/one-sided-lock/ior", "b1e52b5bbfd1aeb310fa1781c243bdcdba678a869a787b75ee75572e49012392", "a321d91492be323fd2d13ed47228edd6b0bfe792601ce4a96255a3edaf2106f8", "348216bc144c864c4880c4b5f4fd21e9fb81006c97f39991ea8a83d61d22cc38", "bc5f6a8d475f0afdd3e653cf6806f1d49e217b6eb2cbc54bd2d7aae502ff0c70"},
	{"read/no-overlap/two-sided/ior", "717c1413da76bd21339a95eb3a959c224bbf536f1243f791c725d3a043a79de1", "9a418167089dcb2fe62e53231e77909f2aa2b7710a4fa9aa6c03d0f07ba33626", "7607b93073ca42876e1f6ca266de04b6752ec88bd6d2293e4ee4690169f9b4c4", "1da33ad8e0ae3dfad347b36eac856d9fde79cf0d550dac78b964b6b35cc66bf5"},
	{"read/write-comm-2-overlap/two-sided/ior", "1d40e0e8afe46819823a11b83baf7d6f99a984a74f0b37af876ab7a9cef48793", "329b54873a8f0e5c7a1baf647bcc88452a3ca5740292b1fc9455e2fe46f7e0e4", "f7c7c25f164a038e5eff6b69f85492fb33651a0cec5f034bf1c09725046fae92", "9b98ce681e56a0d4af527a86b30f594472f2d715fdb2201ba229da466eef091d"},
	{"hier/write-comm-2-overlap/crill-tile256/seed5", "81dc32cd8b445ee531c75f7ab06553cc9ed101de3c06e2f5255c763bde21361c", "fd630878ccc34b4ff3b411aa907eb991212330138b0249683fab21f7742e15cf", "45379a95f34784aa50103877e12d8646c0a6f0e63048f57724da274ee8c65866", "7da3bc319bbdbdb5da78049ea8733271742f2548c2db331e538e4e5561aea3fc"},
	{"hier/write-overlap/ibex-flashio/seed9", "4b67ff16bee950c88f19ec17bad186533ea7e445dcad7381e852bfc426a3dccf", "16dd6def138337bcc585d407641cd319cee8d88aedc0a1850abdfc2c6ba10f14", "c0d24e29dd552ea6928130250e3b6886d381abb02723b816f8bbf116a971305f", "e1f0b44aa83dbd6ff6cdebef8949104f8eef8d3409b286c955d889b33033136b"},
	{"bundled/ibex/ior/write-comm-2-overlap", "af18de4472f6df612cd984e46cdbcc2bc3a0aff91640d3210846a7ee5b2d893e", "4d8bff95919c44a5d7a9a5b00c546cfafc20283fb694ab5e5cdba7387fab29f1", "3d813c014ce2b4b93bd182a2fa43e3909ad693032b18ca5410da3bacd7ddb049", "dc4b9231198f04b1e120b0bc8b738732f43e049f47213ee94c043f1e5fb070bf"},
	{"bundled/crill-flow/flashio/write-comm-2-overlap", "3595231f49239461f1034b93f5bfe7e55a60ed09b65f4b84f832803c5298bdd5", "8c6d4d2fddbeba101bde37ba104599705400496a5ab008cc1306515658d93303", "80be58414bef53c708d1e26999023aebc74c68516b35b618cc84abde2cfdd9f3", "1c3f1a65e1855e9ada8b7ce1d2cc434f2c1747096a4d5cbe26c6bfaa657f9ccf"},
	{"jrun2/crill/ior/write-comm-2-overlap", "5ebe246745b6355f922940bf7d9d3ca94d213d1ffc9ef6e9105093d586d4c8f4", "84267f6d6ca64c7e70f1f99fce9b8ac4dfe36cd56e8e8eabbd755b433b6e49ac", "cb140754ff647f66831189accef052b90d1fa4670bc288edc3ffbaa7a00b69a7", "2ffbb3a37b96f3aae8c3942d22498365f267e2072a34787c071a02350f07a9a2"},
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
