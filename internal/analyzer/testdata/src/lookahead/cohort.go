// Fixtures for the cohort rule: any ScheduleRemote reachable from a
// method on a type whose name contains "cohort" is flagged
// unconditionally — the bundled cohort executor replays member
// completions on one sequential kernel, so its wiring must never feed
// the partitioned executor, no matter how large the delta.
package lookahead

import (
	"sim"
)

type cohortRun struct {
	k *sim.Kernel
}

// --- flagged: directly in a cohort method, delta irrelevant ---

func (b *cohortRun) badRemoteDirect(dst int) {
	b.k.ScheduleRemote(dst, b.k.Now()+1000000, func() {}) // want `ScheduleRemote inside cohort replay`
}

// --- flagged: in replay wiring (a closure built by a cohort method) ---

func (b *cohortRun) badRemoteInWiring(dst int, fut *sim.Future) {
	fut.Then(sim.Func(func() {
		b.k.ScheduleRemote(dst, b.k.Now()+1000000, func() {}) // want `ScheduleRemote inside cohort replay`
	}))
}

// --- flagged: case-insensitive match, value receiver ---

type memberCohortView struct {
	k *sim.Kernel
}

func (v memberCohortView) badRemoteValueRecv(dst int) {
	v.k.ScheduleRemote(dst, v.k.Now()+1000000, func() {}) // want `ScheduleRemote inside cohort replay`
}

// --- clean: same shape on a non-cohort receiver obeys only R1/R2 ---

type flatRun struct {
	k *sim.Kernel
}

func (b *flatRun) goodRemoteLargeDelta(dst int) {
	b.k.ScheduleRemote(dst, b.k.Now()+1000000, func() {})
}

// --- clean: non-remote kernel use inside a cohort method is fine ---

func (b *cohortRun) goodLocalScheduling(fut *sim.Future) {
	fut.Then(sim.Func(func() {
		b.k.After(10, func() {})
	}))
}
