package fcoll_test

import (
	"fmt"
	"strings"
	"testing"

	"collio/internal/fcoll"
)

// fakeCycles records the operations Drive issues on two fake stages,
// fill ("f") and drain ("d"), as op(cycle,slot), and checks the
// substrate contract as it goes, recording a BUG: op on a violation.
type fakeCycles struct {
	n int

	ops         []string
	fill, drain fakeStage
	filled      [2]int // cycle filled into each slot awaiting its drain, -1 when none
}

type fakeStage struct {
	f     *fakeCycles
	name  string
	open  [2]int      // cycle in flight per slot, -1 when idle
	count map[int]int // completions per cycle
}

func newFake(n int) *fakeCycles {
	f := &fakeCycles{n: n, filled: [2]int{-1, -1}}
	f.fill = fakeStage{f: f, name: "f", open: [2]int{-1, -1}, count: map[int]int{}}
	f.drain = fakeStage{f: f, name: "d", open: [2]int{-1, -1}, count: map[int]int{}}
	return f
}

func (f *fakeCycles) rec(format string, args ...any) {
	f.ops = append(f.ops, fmt.Sprintf(format, args...))
}

func (f *fakeCycles) NCycles() int           { return f.n }
func (f *fakeCycles) Fill() fcoll.Stage      { return &f.fill }
func (f *fakeCycles) Drain() fcoll.Stage     { return &f.drain }
func (s *fakeStage) isFill() bool            { return s.name == "f" }
func (s *fakeStage) bug(op string, slot int) { s.f.rec("BUG:%s%s-slot%d", s.name, op, slot) }

// post checks that cycle c may start on slot: a fill needs the slot
// idle in both stages with nothing left undrained, a drain needs the
// slot's fill of the same cycle completed.
func (s *fakeStage) post(c, slot int) {
	f := s.f
	if s.open[slot] >= 0 {
		s.bug("-reopen", slot)
	}
	if s.isFill() && (f.drain.open[slot] >= 0 || f.filled[slot] >= 0) {
		s.bug("-while-draining", slot)
	}
	if !s.isFill() && f.filled[slot] != c {
		s.bug("-unfilled", slot)
	}
}

func (s *fakeStage) done(c, slot int) {
	s.count[c]++
	if s.isFill() {
		s.f.filled[slot] = c
	} else {
		s.f.filled[slot] = -1
	}
}

func (s *fakeStage) Init(c, slot int) {
	s.post(c, slot)
	s.f.rec("%si(%d,%d)", s.name, c, slot)
	s.open[slot] = c
}

func (s *fakeStage) Wait(slot int) {
	c := s.open[slot]
	if c < 0 {
		if s.isFill() {
			s.bug("w-idle", slot)
		}
		s.f.rec("%sw(-,%d)", s.name, slot)
		return
	}
	s.open[slot] = -1
	s.f.rec("%sw(%d,%d)", s.name, c, slot)
	s.done(c, slot)
}

func (s *fakeStage) Sync(c, slot int) {
	s.post(c, slot)
	s.f.rec("%ss(%d,%d)", s.name, c, slot)
	s.done(c, slot)
}

func drive(t *testing.T, alg fcoll.Algorithm, dir fcoll.Direction, n int) *fakeCycles {
	t.Helper()
	f := newFake(n)
	if err := fcoll.Drive(alg, dir, f); err != nil {
		t.Fatal(err)
	}
	return f
}

// driverOrder pins the exact operation sequence of every algorithm in
// both directions at one, two and three cycles. A write fills by
// shuffling and drains by writing, a read fills by reading and drains by
// scattering, so the rows show the direction's mapping: write
// comm-overlap and read write-overlap share Algorithm 1's shape, write
// write-overlap and read comm-overlap Algorithm 2's; Algorithms 3 and 4
// post the I/O stage's operation first (di before fi on a write, fi
// before di on a read).
var driverOrder = map[string]string{
	"write/no-overlap/1": "fs(0,0) ds(0,0)",
	"write/no-overlap/2": "fs(0,0) ds(0,0) fs(1,0) ds(1,0)",
	"write/no-overlap/3": "fs(0,0) ds(0,0) fs(1,0) ds(1,0) fs(2,0) ds(2,0)",

	"write/comm-overlap/1": "fi(0,0) fw(0,0) ds(0,0)",
	"write/comm-overlap/2": "fi(0,0) fi(1,1) fw(0,0) ds(0,0) fw(1,1) ds(1,1)",
	"write/comm-overlap/3": "fi(0,0) fi(1,1) fw(0,0) ds(0,0) fi(2,0) fw(1,1) ds(1,1) fw(2,0) ds(2,0)",

	"write/write-overlap/1": "fs(0,0) di(0,0) dw(0,0) dw(-,1)",
	"write/write-overlap/2": "fs(0,0) di(0,0) fs(1,1) di(1,1) dw(0,0) dw(1,1) dw(-,0)",
	"write/write-overlap/3": "fs(0,0) di(0,0) fs(1,1) di(1,1) dw(0,0) fs(2,0) di(2,0) dw(1,1) dw(2,0) dw(-,1)",

	"write/write-comm-overlap/1": "fs(0,0) di(0,0) dw(0,0)",
	"write/write-comm-overlap/2": "fs(0,0) di(0,0) fi(1,1) fw(1,1) dw(0,0) di(1,1) dw(1,1)",
	"write/write-comm-overlap/3": "fs(0,0) di(0,0) fi(1,1) fw(1,1) dw(0,0) di(1,1) fi(2,0) fw(2,0) dw(1,1) di(2,0) dw(2,0)",

	"write/write-comm-2-overlap/1": "fi(0,0) fw(0,0) di(0,0) dw(0,0) dw(-,1)",
	"write/write-comm-2-overlap/2": "fi(0,0) fw(0,0) di(0,0) dw(-,1) fi(1,1) fw(1,1) di(1,1) dw(0,0) dw(1,1)",
	"write/write-comm-2-overlap/3": "fi(0,0) fw(0,0) di(0,0) dw(-,1) fi(1,1) fw(1,1) di(1,1) dw(0,0) fi(2,0) fw(2,0) di(2,0) dw(2,0) dw(1,1)",

	"read/no-overlap/1": "fs(0,0) ds(0,0)",
	"read/no-overlap/2": "fs(0,0) ds(0,0) fs(1,0) ds(1,0)",
	"read/no-overlap/3": "fs(0,0) ds(0,0) fs(1,0) ds(1,0) fs(2,0) ds(2,0)",

	"read/comm-overlap/1": "fs(0,0) di(0,0) dw(0,0) dw(-,1)",
	"read/comm-overlap/2": "fs(0,0) di(0,0) fs(1,1) di(1,1) dw(0,0) dw(1,1) dw(-,0)",
	"read/comm-overlap/3": "fs(0,0) di(0,0) fs(1,1) di(1,1) dw(0,0) fs(2,0) di(2,0) dw(1,1) dw(2,0) dw(-,1)",

	"read/write-overlap/1": "fi(0,0) fw(0,0) ds(0,0)",
	"read/write-overlap/2": "fi(0,0) fi(1,1) fw(0,0) ds(0,0) fw(1,1) ds(1,1)",
	"read/write-overlap/3": "fi(0,0) fi(1,1) fw(0,0) ds(0,0) fi(2,0) fw(1,1) ds(1,1) fw(2,0) ds(2,0)",

	"read/write-comm-overlap/1": "fs(0,0) di(0,0) dw(0,0)",
	"read/write-comm-overlap/2": "fs(0,0) fi(1,1) di(0,0) dw(0,0) fw(1,1) di(1,1) dw(1,1)",
	"read/write-comm-overlap/3": "fs(0,0) fi(1,1) di(0,0) dw(0,0) fw(1,1) fi(2,0) di(1,1) dw(1,1) fw(2,0) di(2,0) dw(2,0)",

	"read/write-comm-2-overlap/1": "fi(0,0) fw(0,0) di(0,0) dw(0,0) dw(-,1)",
	"read/write-comm-2-overlap/2": "fi(0,0) fw(0,0) dw(-,1) fi(1,1) di(0,0) fw(1,1) di(1,1) dw(0,0) dw(1,1)",
	"read/write-comm-2-overlap/3": "fi(0,0) fw(0,0) dw(-,1) fi(1,1) di(0,0) fw(1,1) dw(0,0) fi(2,0) di(1,1) fw(2,0) di(2,0) dw(2,0) dw(1,1)",
}

// TestDriveOrder pins the operation sequence Drive issues per direction,
// algorithm and cycle count, and checks the substrate contract on each:
// no BUG: op (no slot re-opened while either stage holds it, no drain
// before its fill, no wait on an idle fill), every cycle filled and
// drained exactly once, nothing left in flight.
func TestDriveOrder(t *testing.T) {
	for _, dir := range []fcoll.Direction{fcoll.Write, fcoll.Read} {
		for _, alg := range fcoll.Algorithms {
			for n := 1; n <= 3; n++ {
				name := fmt.Sprintf("%v/%v/%d", dir, alg, n)
				f := drive(t, alg, dir, n)
				got := strings.Join(f.ops, " ")
				if got != driverOrder[name] {
					t.Errorf("%s:\n  got:  %s\n  want: %s", name, got, driverOrder[name])
				}
				checkContract(t, name, f)
			}
		}
	}
}

func checkContract(t *testing.T, name string, f *fakeCycles) {
	t.Helper()
	for _, op := range f.ops {
		if strings.HasPrefix(op, "BUG:") {
			t.Errorf("%s: %s", name, op)
		}
	}
	for _, st := range []*fakeStage{&f.fill, &f.drain} {
		if st.open != [2]int{-1, -1} {
			t.Errorf("%s: %s operations left open: %v", name, st.name, st.open)
		}
		for c := 0; c < f.n; c++ {
			if k := st.count[c]; k != 1 {
				t.Errorf("%s: cycle %d completed %d times in stage %s", name, c, k, st.name)
			}
		}
	}
}

// TestDriveOrderFlagsReopenedSlot proves the fake catches the defect it
// guards against: a fill posted into a slot whose drain is still in
// flight.
func TestDriveOrderFlagsReopenedSlot(t *testing.T) {
	f := newFake(2)
	f.fill.Sync(0, 0)
	f.drain.Init(0, 0)
	f.fill.Init(1, 0)
	if got := strings.Join(f.ops, " "); !strings.Contains(got, "BUG:f-while-draining-slot0") {
		t.Fatalf("re-opened slot not flagged: %s", got)
	}
}

// TestDriveWriteOverlapWaitsEveryWrite pins the odd-cycle fix of
// Algorithm 2: the paper's pseudocode waits only on p2 after the loop,
// which leaves the last write outstanding when the cycle count is odd.
// A read's comm-overlap runs the same driver with the scatter as drain.
func TestDriveWriteOverlapWaitsEveryWrite(t *testing.T) {
	for _, run := range []struct {
		alg fcoll.Algorithm
		dir fcoll.Direction
	}{{fcoll.WriteOverlap, fcoll.Write}, {fcoll.CommOverlap, fcoll.Read}} {
		for _, n := range []int{1, 3, 5} {
			f := drive(t, run.alg, run.dir, n)
			last := fmt.Sprintf("dw(%d,%d)", n-1, (n-1)%2)
			tail := f.ops[len(f.ops)-2:]
			if tail[0] != last && tail[1] != last {
				t.Errorf("%v %d cycles: the final drain %s is not waited at the end: %v", run.dir, n, last, f.ops)
			}
			if k := f.drain.count[n-1]; k != 1 {
				t.Errorf("%v %d cycles: final drain waited %d times", run.dir, n, k)
			}
		}
	}
}

// TestDriveWriteComm2CycleOrder pins Algorithm 4's per-cycle posting
// order after the first cycle. A write posts cycle c-1's write first,
// then waits the freed buffer's write and shuffles cycle c into it; a
// read waits the freed buffer's scatter and reads cycle c into it
// before it scatters cycle c-1.
func TestDriveWriteComm2CycleOrder(t *testing.T) {
	const n = 5
	for _, dir := range []fcoll.Direction{fcoll.Write, fcoll.Read} {
		got := strings.Join(drive(t, fcoll.WriteComm2Overlap, dir, n).ops, " ")
		for c := 1; c < n; c++ {
			s, freed := c%2, "-"
			if c >= 2 {
				freed = fmt.Sprint(c - 2)
			}
			drain := fmt.Sprintf("di(%d,%d)", c-1, 1-s)
			fill := fmt.Sprintf("dw(%s,%d) fi(%d,%d)", freed, s, c, s)
			step := drain + " " + fill
			if dir == fcoll.Read {
				step = fill + " " + drain
			}
			step += fmt.Sprintf(" fw(%d,%d)", c, s)
			if !strings.Contains(got, step) {
				t.Errorf("%v cycle %d: want step %q in\n  %s", dir, c, step, got)
			}
		}
	}
}

func TestDriveRejectsUnknownAlgorithm(t *testing.T) {
	if err := fcoll.Drive(fcoll.Algorithm(99), fcoll.Write, newFake(1)); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}
