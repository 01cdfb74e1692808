package fcoll_test

import (
	"fmt"
	"strings"
	"testing"

	"collio/internal/fcoll"
	"collio/internal/sim"
)

// fakeCycles records the operations Drive issues. WriteInit hands out a
// fresh future per cycle; with passive set, ShuffleFuture does too, and
// WaitAny reports the earliest-posted operation as the first to complete.
type fakeCycles struct {
	n       int
	passive bool

	ops    []string
	label  map[*sim.Future]string
	posted map[*sim.Future]int // posting order of each live future
	seq    int
	open   [2]int // cycle in flight per slot, -1 when idle
	writes map[string]int
}

func newFake(n int, passive bool) *fakeCycles {
	return &fakeCycles{
		n: n, passive: passive,
		label:  map[*sim.Future]string{},
		posted: map[*sim.Future]int{},
		open:   [2]int{-1, -1},
		writes: map[string]int{},
	}
}

func (f *fakeCycles) rec(format string, args ...any) {
	f.ops = append(f.ops, fmt.Sprintf(format, args...))
}

func (f *fakeCycles) future(label string) *sim.Future {
	fut := new(sim.Future)
	f.label[fut] = label
	f.posted[fut] = f.seq
	f.seq++
	return fut
}

func (f *fakeCycles) NCycles() int { return f.n }

func (f *fakeCycles) ShuffleInit(c, slot int) {
	if f.open[slot] >= 0 {
		f.rec("BUG:reinit-open-slot%d", slot)
	}
	f.open[slot] = c
	f.rec("si(%d,%d)", c, slot)
}

func (f *fakeCycles) ShuffleWait(slot int) { f.finish("sw", slot) }
func (f *fakeCycles) ShuffleReap(slot int) { f.finish("sr", slot) }

func (f *fakeCycles) finish(op string, slot int) {
	if f.open[slot] < 0 {
		f.rec("BUG:%s-idle-slot%d", op, slot)
	}
	f.open[slot] = -1
	f.rec("%s(%d)", op, slot)
}

func (f *fakeCycles) WriteSync(c, slot int) { f.rec("ws(%d,%d)", c, slot) }

func (f *fakeCycles) WriteInit(c, slot int) *sim.Future {
	f.rec("wi(%d,%d)", c, slot)
	f.writes[fmt.Sprint("w", c)] = 0
	return f.future(fmt.Sprint("w", c))
}

func (f *fakeCycles) WriteWait(fut *sim.Future) {
	if fut == nil {
		f.rec("ww(-)")
		return
	}
	f.complete(fut)
	f.rec("ww(%s)", f.label[fut])
}

func (f *fakeCycles) complete(fut *sim.Future) {
	if l := f.label[fut]; l[0] == 'w' {
		f.writes[l]++
	}
	delete(f.posted, fut)
}

func (f *fakeCycles) ShuffleFuture(slot int) *sim.Future {
	if !f.passive {
		return nil
	}
	return f.future(fmt.Sprint("s", f.open[slot]))
}

func (f *fakeCycles) WaitAny(futs ...*sim.Future) int {
	best := -1
	for i, fut := range futs {
		if _, ok := f.posted[fut]; ok && (best < 0 || f.posted[fut] < f.posted[futs[best]]) {
			best = i
		}
	}
	if best < 0 {
		f.rec("BUG:waitany-nothing-live")
		return 0
	}
	f.complete(futs[best])
	f.rec("any(%s)", f.label[futs[best]])
	return best
}

func drive(t *testing.T, alg fcoll.Algorithm, n int, passive bool) *fakeCycles {
	t.Helper()
	f := newFake(n, passive)
	if err := fcoll.Drive(alg, f); err != nil {
		t.Fatal(err)
	}
	return f
}

// driverOrder pins the exact operation sequence of every algorithm at
// one, two and three cycles (dataflow with passive shuffle completion;
// its nil-future fallback is TestDriveDataflowFallsBackToStatic).
var driverOrder = map[string]string{
	"no-overlap/1": "si(0,0) sw(0) ws(0,0)",
	"no-overlap/2": "si(0,0) sw(0) ws(0,0) si(1,0) sw(0) ws(1,0)",
	"no-overlap/3": "si(0,0) sw(0) ws(0,0) si(1,0) sw(0) ws(1,0) si(2,0) sw(0) ws(2,0)",

	"comm-overlap/1": "si(0,0) sw(0) ws(0,0)",
	"comm-overlap/2": "si(0,0) si(1,1) sw(0) ws(0,0) sw(1) ws(1,1)",
	"comm-overlap/3": "si(0,0) si(1,1) sw(0) ws(0,0) si(2,0) sw(1) ws(1,1) sw(0) ws(2,0)",

	"write-overlap/1": "si(0,0) sw(0) wi(0,0) ww(w0) ww(-)",
	"write-overlap/2": "si(0,0) sw(0) wi(0,0) si(1,1) sw(1) wi(1,1) ww(w0) ww(w1) ww(-)",
	"write-overlap/3": "si(0,0) sw(0) wi(0,0) si(1,1) sw(1) wi(1,1) ww(w0) si(2,0) sw(0) wi(2,0) ww(w1) ww(w2) ww(-)",

	"write-comm-overlap/1": "si(0,0) sw(0) wi(0,0) ww(w0)",
	"write-comm-overlap/2": "si(0,0) sw(0) wi(0,0) si(1,1) sw(1) ww(w0) wi(1,1) ww(w1)",
	"write-comm-overlap/3": "si(0,0) sw(0) wi(0,0) si(1,1) sw(1) ww(w0) wi(1,1) si(2,0) sw(0) ww(w1) wi(2,0) ww(w2)",

	"write-comm-2-overlap/1": "si(0,0) sw(0) wi(0,0) ww(w0) ww(-)",
	"write-comm-2-overlap/2": "si(0,0) sw(0) wi(0,0) ww(-) si(1,1) sw(1) wi(1,1) ww(w0) ww(w1)",
	"write-comm-2-overlap/3": "si(0,0) sw(0) wi(0,0) ww(-) si(1,1) sw(1) wi(1,1) ww(w0) si(2,0) sw(0) wi(2,0) ww(w2) ww(w1)",

	"dataflow-overlap/1": "si(0,0) any(s0) sr(0) wi(0,0) any(w0)",
	"dataflow-overlap/2": "si(0,0) si(1,1) any(s0) sr(0) wi(0,0) any(s1) sr(1) wi(1,1) any(w0) any(w1)",
	"dataflow-overlap/3": "si(0,0) si(1,1) any(s0) sr(0) wi(0,0) any(s1) sr(1) wi(1,1) any(w0) si(2,0) any(w1) any(s2) sr(0) wi(2,0) any(w2)",
}

// TestDriveOrder pins the operation sequence Drive issues per algorithm
// and cycle count, and checks the substrate contract on each: no slot is
// re-shuffled while its shuffle is open, every shuffle and every
// asynchronous write is completed exactly once, nothing is left in
// flight.
func TestDriveOrder(t *testing.T) {
	for _, alg := range fcoll.AllAlgorithms {
		for n := 1; n <= 3; n++ {
			name := fmt.Sprintf("%v/%d", alg, n)
			f := drive(t, alg, n, true)
			got := strings.Join(f.ops, " ")
			if got != driverOrder[name] {
				t.Errorf("%s:\n  got:  %s\n  want: %s", name, got, driverOrder[name])
			}
			if f.open != [2]int{-1, -1} {
				t.Errorf("%s: shuffles left open: %v", name, f.open)
			}
			for w, k := range f.writes {
				if k != 1 {
					t.Errorf("%s: write %s completed %d times", name, w, k)
				}
			}
		}
	}
}

// TestDriveWriteOverlapWaitsEveryWrite pins the odd-cycle fix of
// Algorithm 2: the paper's pseudocode waits only on p2 after the loop,
// which leaves the last write outstanding when the cycle count is odd.
func TestDriveWriteOverlapWaitsEveryWrite(t *testing.T) {
	for _, n := range []int{1, 3, 5} {
		f := drive(t, fcoll.WriteOverlap, n, true)
		last := fmt.Sprintf("ww(w%d)", n-1)
		tail := f.ops[len(f.ops)-2:]
		if tail[0] != last && tail[1] != last {
			t.Errorf("%d cycles: the final write w%d is not waited at the end: %v", n, n-1, f.ops)
		}
		if f.writes[fmt.Sprint("w", n-1)] != 1 {
			t.Errorf("%d cycles: final write waited %d times", n, f.writes[fmt.Sprint("w", n-1)])
		}
	}
}

// TestDriveWriteComm2CycleOrder pins Algorithm 4's per-cycle posting
// order after the first cycle: write_wait on the freed buffer, then
// shuffle_init, shuffle_wait, write_init on it.
func TestDriveWriteComm2CycleOrder(t *testing.T) {
	const n = 5
	got := strings.Join(drive(t, fcoll.WriteComm2Overlap, n, true).ops, " ")
	for c := 1; c < n; c++ {
		s, freed := c%2, "-"
		if c >= 2 {
			freed = fmt.Sprint("w", c-2)
		}
		step := fmt.Sprintf("ww(%s) si(%d,%d) sw(%d) wi(%d,%d)", freed, c, s, s, c, s)
		if !strings.Contains(got, step) {
			t.Errorf("cycle %d: want step %q in\n  %s", c, step, got)
		}
	}
}

// TestDriveDataflowFallsBackToStatic: a substrate without a shuffle
// completion future (the one-sided primitives) gets Algorithm 4's static
// order from the dataflow scheduler.
func TestDriveDataflowFallsBackToStatic(t *testing.T) {
	for n := 1; n <= 3; n++ {
		df := strings.Join(drive(t, fcoll.DataflowOverlap, n, false).ops, " ")
		static := strings.Join(drive(t, fcoll.WriteComm2Overlap, n, false).ops, " ")
		if df != static {
			t.Errorf("%d cycles: dataflow without completion futures\n  got:  %s\n  want: %s", n, df, static)
		}
	}
}

func TestDriveRejectsUnknownAlgorithm(t *testing.T) {
	if err := fcoll.Drive(fcoll.Algorithm(99), newFake(1, true)); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}
