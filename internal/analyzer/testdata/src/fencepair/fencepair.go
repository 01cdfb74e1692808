// Fixtures for the fencepair analyzer: RMA epoch balance and Puts
// outside their synchronisation epoch.
package fencepair

import "mpi"

func lockNoUnlock(r *mpi.Rank, win *mpi.Window) {
	r.WinLock(win, mpi.LockShared, 1) // want `WinLock\(win, 1\) is never unlocked`
	r.Put(win, 1, 0, mpi.Symbolic(8))
}

func unlockNoLock(r *mpi.Rank, win *mpi.Window) {
	r.WinUnlock(win, 1) // want `WinUnlock\(win, 1\) without a matching WinLock`
}

func putAfterUnlock(r *mpi.Rank, win *mpi.Window) {
	r.WinLock(win, mpi.LockShared, 2)
	r.Put(win, 2, 0, mpi.Symbolic(8))
	r.WinUnlock(win, 2)
	r.Put(win, 2, 8, mpi.Symbolic(8)) // want `Put to \(win, 2\) outside its lock epoch`
}

func putAfterLastFence(r *mpi.Rank, win *mpi.Window) {
	r.WinFence(win)
	r.Put(win, 1, 0, mpi.Symbolic(8))
	r.WinFence(win)
	r.Put(win, 1, 8, mpi.Symbolic(8)) // want `Put on win after the final WinFence`
}

func startNoComplete(r *mpi.Rank, win *mpi.Window) {
	r.WinStart(win, []int{0}) // want `WinStart\(win\) without a matching WinComplete`
}

func completeNoStart(r *mpi.Rank, win *mpi.Window) {
	r.WinComplete(win) // want `WinComplete\(win\) without a matching WinStart`
}

// --- near misses: balanced epochs and caller-managed Puts stay silent ---

func balancedLock(r *mpi.Rank, win *mpi.Window) {
	r.WinLock(win, mpi.LockShared, 1)
	r.Put(win, 1, 0, mpi.Symbolic(8))
	r.WinUnlock(win, 1)
}

func balancedFence(r *mpi.Rank, win *mpi.Window) {
	r.WinFence(win)
	r.Put(win, 1, 0, mpi.Symbolic(8))
	r.WinFence(win)
}

func balancedPSCW(r *mpi.Rank, win *mpi.Window) {
	r.WinStart(win, []int{0})
	r.Put(win, 0, 0, mpi.Symbolic(8))
	r.WinComplete(win)
}

// callerManaged mirrors the collective engine's putOp: the epoch is
// opened and closed by the caller, so a Put-only function is exempt.
func callerManaged(r *mpi.Rank, win *mpi.Window, tgt int) {
	r.Put(win, tgt, 0, mpi.Symbolic(8))
}

// perTargetLocks exercises the (window, target) pair keying: each
// target's epoch is independently balanced.
func perTargetLocks(r *mpi.Rank, win *mpi.Window) {
	r.WinLock(win, mpi.LockExclusive, 0)
	r.Put(win, 0, 0, mpi.Symbolic(8))
	r.WinUnlock(win, 0)
	r.WinLock(win, mpi.LockExclusive, 1)
	r.Put(win, 1, 0, mpi.Symbolic(8))
	r.WinUnlock(win, 1)
}
