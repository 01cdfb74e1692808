// Fixtures for the lookahead analyzer: ScheduleRemote deltas that are
// statically inside the window horizon, and cross-LP kernel access
// from inside remote callbacks.
package lookahead

import (
	"sim"
)

// --- flagged: delta statically inside the horizon ---

func badZeroDelta(k *sim.Kernel, dst int) {
	k.ScheduleRemote(dst, k.Now(), func() {}) // want `ScheduleRemote at Now\(\)\+0`
}

func badZeroDeltaViaLocal(k *sim.Kernel, dst int) {
	t := k.Now()
	k.ScheduleRemote(dst, t, func() {}) // want `ScheduleRemote at Now\(\)\+0`
}

func badBelowConstantLookahead() {
	part := sim.NewPartition(42, 4, 100)
	k := part.Kernel(0)
	k.ScheduleRemote(1, k.Now()+50, func() {}) // want `ScheduleRemote delta 50 is below the partition lookahead 100`
}

func badBelowLookaheadSplitDelta() {
	part := sim.NewPartition(42, 4, 100)
	k := part.Kernel(0)
	t := k.Now() + 30
	t = t + 20
	k.ScheduleRemote(1, t, func() {}) // want `ScheduleRemote delta 50 is below the partition lookahead 100`
}

// --- flagged: the callback runs on the destination LP ---

func badCrossLPSchedule(srcK *sim.Kernel, dst int, lat sim.Time) {
	srcK.ScheduleRemote(dst, srcK.Now()+lat, func() {
		srcK.After(lat, func() {}) // want `cross-LP access: this callback runs on the destination LP of ScheduleRemote, but srcK\.After mutates the sending kernel`
	})
}

func badCrossLPCompleteAfter(srcK *sim.Kernel, dst int, lat sim.Time, f *sim.Future) {
	srcK.ScheduleRemote(dst, srcK.Now()+lat, func() {
		srcK.CompleteAfter(lat, f) // want `cross-LP access: this callback runs on the destination LP of ScheduleRemote, but srcK\.CompleteAfter mutates the sending kernel`
	})
}

// --- clean: delta meets or exceeds the constant lookahead ---

func goodAtLookahead() {
	part := sim.NewPartition(42, 4, 100)
	k := part.Kernel(0)
	k.ScheduleRemote(1, k.Now()+100, func() {})
}

// --- clean: non-constant latency (the real simnet/simfs shape) ---

func goodConfigLatency(k *sim.Kernel, dst int, lat sim.Time) {
	txStart := k.Now()
	k.ScheduleRemote(dst, txStart+lat, func() {})
}

// --- clean: the callback touches destination-side state only ---

func goodDestinationSideWork(part *sim.Partition, srcK *sim.Kernel, dst int, lat sim.Time) {
	dk := part.Kernel(dst)
	srcK.ScheduleRemote(dst, srcK.Now()+lat, func() {
		dk.After(lat, func() {})
	})
}

// --- clean: relaying onward through ScheduleRemote is sanctioned ---

func goodRelayViaScheduleRemote(srcK *sim.Kernel, dst, home int, lat sim.Time) {
	srcK.ScheduleRemote(dst, srcK.Now()+lat, func() {
		srcK.ScheduleRemote(home, srcK.Now()+lat, func() {})
	})
}
