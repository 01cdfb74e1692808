package mpi

import (
	"math"
	"testing"

	"collio/internal/probe"
	"collio/internal/sim"
)

// closedFormPattern is a control collective the bundled executor
// charges in closed form, with the largest relative deviation of its
// closed form from the exact run that TestClosedFormMatchesExact
// accepts.
type closedFormPattern struct {
	name  string
	c     Coll
	bound float64
}

// closedFormPatterns are the control collectives at world size np: the
// closing barrier, the per-cycle size exchange, the bounds and
// extent-count allreduces, and an allgatherv where rank i contributes
// 16·(i+1) bytes. Each bound is the worst deviation measured over
// np ∈ {2, 3, 5, 7, 13, 64} plus about five points: barrier 26.5 %,
// all-to-all 26.0 %, allreduce 92.4 % and 92.5 %, allgatherv 62.3 %.
func closedFormPatterns(np int) []closedFormPattern {
	return []closedFormPattern{
		{"barrier", Coll{Op: probe.CauseBarrier}, 0.32},
		{"alltoall(8)", Coll{Op: probe.CauseAlltoall, Bytes: 8}, 0.32},
		{"allreduce(16)", Coll{Op: probe.CauseAllreduce, Bytes: 16}, 0.98},
		{"allreduce(8P)", Coll{Op: probe.CauseAllreduce, Bytes: 8 * int64(np)}, 0.98},
		{"allgatherv(skew)", Coll{Op: probe.CauseAllgatherv, Block: func(i int) int64 { return 16 * int64(i+1) }}, 0.67},
	}
}

// TestClosedFormMatchesExact measures the closed form (CostModel)
// against the exact patterns it stands for. On a quiet world at 4
// ranks per node, every rank enters the collective at 0; the exact
// side is the last rank's exit instant. The closed form's values are
// pinned (the bundled executor charges them, so a moved value moves
// every bundled result) and its deviation from the exact run is logged
// and bounded per pattern.
//
// The deviations are the model's approximations, not noise: the closed
// form charges every ladder round at the hop cost of the first member's
// peer, the tree as two full ladders although a binomial tree's
// critical path is shorter at small np, and each allgatherv round at
// the average block. Nor does it see a node's ranks queue their
// same-round messages on the shared NIC, which is why the exact run can
// be the slower one: at np 64 the allgatherv's last rounds put four
// ranks' 32-block messages on each node's NIC at once.
func TestClosedFormMatchesExact(t *testing.T) {
	// closed[np] are the closed forms of closedFormPatterns(np), in order.
	closed := map[int][]sim.Time{
		2:  {1050, 1051, 2104, 2104, 1054},
		3:  {2100, 2102, 4208, 4216, 2110},
		5:  {4871, 4880, 9760, 9792, 4911},
		7:  {4871, 4887, 9760, 9816, 4966},
		13: {7642, 7690, 15312, 15492, 8033},
		64: {13184, 13608, 26416, 28076, 23843},
	}
	worst := map[string]float64{}
	for _, np := range []int{2, 3, 5, 7, 13, 64} {
		for i, pt := range closedFormPatterns(np) {
			k, w := testWorld(t, np, 4, 1, nil)
			var exact sim.Time
			w.Launch(func(r *Rank) {
				r.Collective(pt.c)
				exact = max(exact, r.Now())
			})
			k.Run()
			got := CostModel{w.Config(), w.Network().Config()}.Cost(pt.c)
			if want := closed[np][i]; got != want {
				t.Errorf("np=%d %s: closed form %d ns, pinned %d ns", np, pt.name, got, want)
			}
			dev := float64(got-exact) / float64(exact)
			worst[pt.name] = max(worst[pt.name], math.Abs(dev))
			t.Logf("np=%-2d %-16s exact %6d ns  closed %6d ns  %+6.1f%%", np, pt.name, exact, got, 100*dev)
			if math.Abs(dev) > pt.bound {
				t.Errorf("np=%d %s: closed form %d ns deviates %+.1f%% from the exact %d ns, bound %.0f%%",
					np, pt.name, got, 100*dev, exact, 100*pt.bound)
			}
		}
	}
	for _, pt := range closedFormPatterns(0) {
		t.Logf("%-16s worst |deviation| %5.1f%%  bound %3.0f%%", pt.name, 100*worst[pt.name], 100*pt.bound)
	}
}
