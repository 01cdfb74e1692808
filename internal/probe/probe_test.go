package probe

import (
	"strings"
	"testing"
)

func TestNilProbeIsNoop(t *testing.T) {
	var p *Probe
	if p.Enabled() {
		t.Fatal("nil probe reports Enabled")
	}
	// None of these may panic.
	p.Emit(Event{Layer: LayerMPI, Kind: KindStall})
	p.Counters().Add(CtrNetMsgs, 1)
	p.Counters().AddRank(3, CtrMPIStallNS, 10)
	p.Counters().SetMax(CtrMPIUnexpPeak, 5)
	if got := p.Counters().Get(CtrNetMsgs); got != 0 {
		t.Fatalf("nil registry Get = %d, want 0", got)
	}
	if evs := p.Events(); evs != nil {
		t.Fatalf("nil probe Events = %v, want nil", evs)
	}
	if s := p.Counters().String(); s != "" {
		t.Fatalf("nil registry String = %q, want empty", s)
	}
}

func TestEmit(t *testing.T) {
	p := New()
	p.Emit(Event{Layer: LayerNet, Kind: KindNetSend, Rank: 1, Peer: 2, Size: 64})
	p.Emit(Event{Layer: LayerFS, Kind: KindFSWrite, Rank: 0, Size: 128, Dur: 7})
	if len(p.Events()) != 2 {
		t.Fatalf("events=%d, want 2", len(p.Events()))
	}
	if got := p.Events()[1].End(); got != 7 {
		t.Fatalf("span End = %d, want 7", got)
	}
	counts := p.LayerCounts()
	if counts[LayerNet] != 1 || counts[LayerFS] != 1 || counts[LayerMPI] != 0 {
		t.Fatalf("LayerCounts = %v", counts)
	}
}

func TestEventName(t *testing.T) {
	e := Event{Kind: KindPhase, Cause: CauseShuffle}
	if e.Name() != "phase:shuffle" {
		t.Fatalf("Name = %q", e.Name())
	}
	if (Event{Kind: KindCycle}).Name() != "cycle" {
		t.Fatalf("causeless Name = %q", Event{Kind: KindCycle}.Name())
	}
}

func TestEnumStringsTotal(t *testing.T) {
	// Every declared enum value must render a real name, not the
	// fallback — exporters use these as Perfetto event names.
	for _, l := range Layers {
		if strings.HasPrefix(l.String(), "Layer(") {
			t.Errorf("layer %d missing String case", l)
		}
	}
	for k := KindNetSend; k <= KindCollOp; k++ {
		if strings.HasPrefix(k.String(), "Kind(") {
			t.Errorf("kind %d missing String case", k)
		}
	}
	for c := CauseNone; c <= CauseCollRead; c++ {
		if strings.HasPrefix(c.String(), "Cause(") {
			t.Errorf("cause %d missing String case", c)
		}
	}
}

func TestRegistryDeterministicSnapshot(t *testing.T) {
	g := &Registry{}
	g.Add("z.last", 3)
	g.Add("a.first", 1)
	g.AddRank(5, "m.mid", 10)
	g.AddRank(2, "m.mid", 20)
	g.SetMax("peak", 4)
	g.SetMax("peak", 2) // must not lower

	snap := g.Snapshot()
	names := make([]string, len(snap))
	for i, c := range snap {
		names[i] = c.Name
	}
	want := []string{"a.first", "m.mid", "peak", "z.last"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("snapshot order = %v, want %v", names, want)
	}
	if g.Get("peak") != 4 {
		t.Fatalf("SetMax lowered peak to %d", g.Get("peak"))
	}
	if g.Get("m.mid") != 30 {
		t.Fatalf("AddRank did not aggregate: %d", g.Get("m.mid"))
	}
	if g.RankValue(5, "m.mid") != 10 || g.RankValue(2, "m.mid") != 20 {
		t.Fatal("per-rank values wrong")
	}
	if ranks := g.Ranks(); len(ranks) != 2 || ranks[0] != 2 || ranks[1] != 5 {
		t.Fatalf("Ranks = %v", ranks)
	}
	if names := g.RankNames(); len(names) != 1 || names[0] != "m.mid" {
		t.Fatalf("RankNames = %v", names)
	}
	// String must be stable across calls (sorted, not map order).
	if g.String() != g.String() {
		t.Fatal("String not deterministic")
	}
}
