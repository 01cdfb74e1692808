package mpi

import (
	"strings"
	"testing"

	"collio/internal/sim"
)

func TestPutFenceData(t *testing.T) {
	k, w := testWorld(t, 4, 2, 1, nil)
	var winData []byte
	w.Launch(func(r *Rank) {
		size := int64(0)
		if r.ID() == 0 {
			size = 64
		}
		win := r.WinAllocate(size, true)
		r.WinFence(win) // open epoch
		if r.ID() != 0 {
			b := make([]byte, 8)
			for i := range b {
				b[i] = byte(r.ID())
			}
			r.Put(win, 0, int64(r.ID()-1)*8, Bytes(b))
		}
		r.WinFence(win) // close epoch: all puts complete everywhere
		if r.ID() == 0 {
			winData = append([]byte(nil), win.Data(0)[:24]...)
		}
	})
	k.Run()
	for i := 0; i < 24; i++ {
		want := byte(i/8 + 1)
		if winData[i] != want {
			t.Fatalf("window[%d] = %d, want %d", i, winData[i], want)
		}
	}
}

func TestPutDoesNotRequireTargetProgress(t *testing.T) {
	// The target leaves MPI entirely (long compute). Puts from the
	// origin must still land: RDMA bypasses the target CPU.
	k, w := testWorld(t, 2, 1, 1, nil)
	var putDone sim.Time
	const targetBusy = 50 * sim.Millisecond
	w.Launch(func(r *Rank) {
		size := int64(0)
		if r.ID() == 1 {
			size = 1 << 20
		}
		win := r.WinAllocate(size, false)
		if r.ID() == 0 {
			r.WinLock(win, LockShared, 1)
			r.Put(win, 1, 0, Symbolic(1<<20))
			r.WinUnlock(win, 1) // returns when remotely complete
			putDone = r.Now()
		} else {
			r.Compute(targetBusy)
		}
		r.Barrier()
	})
	k.Run()
	if putDone == 0 || putDone >= targetBusy {
		t.Fatalf("put completed at %v; should finish while target computes (< %v)", putDone, targetBusy)
	}
}

func TestLockSharedConcurrent(t *testing.T) {
	// Two origins hold a shared lock concurrently: both must acquire
	// before either releases.
	k, w := testWorld(t, 3, 3, 1, nil)
	var acquired [3]sim.Time
	hold := 10 * sim.Millisecond
	w.Launch(func(r *Rank) {
		size := int64(0)
		if r.ID() == 0 {
			size = 128
		}
		win := r.WinAllocate(size, false)
		if r.ID() != 0 {
			r.WinLock(win, LockShared, 0)
			acquired[r.ID()] = r.Now()
			r.Compute(hold)
			r.WinUnlock(win, 0)
		}
		r.Barrier()
	})
	k.Run()
	// Shared: both acquire at roughly the same time, well before hold.
	for _, id := range []int{1, 2} {
		if acquired[id] > hold {
			t.Fatalf("rank %d acquired shared lock at %v; concurrency broken", id, acquired[id])
		}
	}
}

func TestLockExclusiveSerialises(t *testing.T) {
	k, w := testWorld(t, 3, 3, 1, nil)
	var acquired [3]sim.Time
	hold := 10 * sim.Millisecond
	w.Launch(func(r *Rank) {
		size := int64(0)
		if r.ID() == 0 {
			size = 128
		}
		win := r.WinAllocate(size, false)
		if r.ID() != 0 {
			r.WinLock(win, LockExclusive, 0)
			acquired[r.ID()] = r.Now()
			r.Compute(hold)
			r.WinUnlock(win, 0)
		}
		r.Barrier()
	})
	k.Run()
	d := acquired[2] - acquired[1]
	if d < 0 {
		d = -d
	}
	if d < hold {
		t.Fatalf("exclusive locks overlapped: acquisitions %v apart, hold %v", d, hold)
	}
}

func TestExclusiveBlocksShared(t *testing.T) {
	k, w := testWorld(t, 3, 3, 1, nil)
	var sharedAt, exclAt sim.Time
	hold := 20 * sim.Millisecond
	w.Launch(func(r *Rank) {
		size := int64(0)
		if r.ID() == 0 {
			size = 64
		}
		win := r.WinAllocate(size, false)
		switch r.ID() {
		case 1:
			r.WinLock(win, LockExclusive, 0)
			exclAt = r.Now()
			r.Compute(hold)
			r.WinUnlock(win, 0)
		case 2:
			r.Compute(sim.Millisecond) // let rank 1 win the lock
			r.WinLock(win, LockShared, 0)
			sharedAt = r.Now()
			r.WinUnlock(win, 0)
		}
		r.Barrier()
	})
	k.Run()
	if sharedAt < exclAt+hold {
		t.Fatalf("shared lock at %v granted during exclusive hold ending %v", sharedAt, exclAt+hold)
	}
}

func TestFenceIsCollective(t *testing.T) {
	// A fence cannot complete before the slowest rank arrives.
	k, w := testWorld(t, 4, 2, 1, nil)
	slow := 15 * sim.Millisecond
	var exit [4]sim.Time
	w.Launch(func(r *Rank) {
		win := r.WinAllocate(0, false)
		if r.ID() == 3 {
			r.Compute(slow)
		}
		r.WinFence(win)
		exit[r.ID()] = r.Now()
	})
	k.Run()
	for i, e := range exit {
		if e < slow {
			t.Fatalf("rank %d left fence at %v, before slowest arrival", i, e)
		}
	}
}

func TestPutBeyondWindowPanics(t *testing.T) {
	k, w := testWorld(t, 2, 2, 1, nil)
	panicked := false
	w.Launch(func(r *Rank) {
		size := int64(0)
		if r.ID() == 1 {
			size = 16
		}
		win := r.WinAllocate(size, false)
		if r.ID() == 0 {
			func() {
				defer func() { panicked = recover() != nil }()
				r.Put(win, 1, 8, Symbolic(16))
			}()
		}
		r.Barrier()
	})
	k.Run()
	if !panicked {
		t.Fatal("out-of-window Put did not panic")
	}
}

func TestMultipleWindows(t *testing.T) {
	k, w := testWorld(t, 2, 2, 1, nil)
	var a0, b0 byte
	w.Launch(func(r *Rank) {
		var sa, sb int64
		if r.ID() == 0 {
			sa, sb = 8, 8
		}
		winA := r.WinAllocate(sa, true)
		winB := r.WinAllocate(sb, true)
		r.WinFence(winA)
		r.WinFence(winB)
		if r.ID() == 1 {
			r.Put(winA, 0, 0, Bytes([]byte{0xAA}))
			r.Put(winB, 0, 0, Bytes([]byte{0xBB}))
		}
		r.WinFence(winA)
		r.WinFence(winB)
		if r.ID() == 0 {
			a0, b0 = winA.Data(0)[0], winB.Data(0)[0]
		}
	})
	k.Run()
	if a0 != 0xAA || b0 != 0xBB {
		t.Fatalf("window contents %x/%x, want AA/BB", a0, b0)
	}
}

func TestPSCWDataTransfer(t *testing.T) {
	// Rank 0 exposes a window to ranks 1 and 2 (PSCW); both put, then
	// complete; after WinWait the data must be in place.
	k, w := testWorld(t, 3, 3, 1, nil)
	var got []byte
	w.Launch(func(r *Rank) {
		size := int64(0)
		if r.ID() == 0 {
			size = 16
		}
		win := r.WinAllocate(size, true)
		if r.ID() == 0 {
			r.WinPost(win, []int{1, 2})
			r.WinWait(win)
			got = append([]byte(nil), win.Data(0)...)
		} else {
			r.WinStart(win, []int{0})
			b := []byte{byte(r.ID()), byte(r.ID())}
			r.Put(win, 0, int64(r.ID()-1)*2, Bytes(b))
			r.WinComplete(win)
		}
		r.Barrier()
	})
	k.Run()
	want := []byte{1, 1, 2, 2}
	for i, b := range want {
		if got[i] != b {
			t.Fatalf("window[%d] = %d, want %d", i, got[i], b)
		}
	}
}

func TestPSCWStartWaitsForPost(t *testing.T) {
	// The origin's WinStart must block until the target posts.
	k, w := testWorld(t, 2, 2, 1, nil)
	postAt := 8 * sim.Millisecond
	var started sim.Time
	w.Launch(func(r *Rank) {
		size := int64(0)
		if r.ID() == 1 {
			size = 8
		}
		win := r.WinAllocate(size, false)
		if r.ID() == 0 {
			r.WinStart(win, []int{1})
			started = r.Now()
			r.Put(win, 1, 0, Symbolic(4))
			r.WinComplete(win)
		} else {
			r.Compute(postAt)
			r.WinPost(win, []int{0})
			r.WinWait(win)
		}
		r.Barrier()
	})
	k.Run()
	if started < postAt {
		t.Fatalf("WinStart returned at %v, before the post at %v", started, postAt)
	}
}

func TestPSCWWaitSeesRemoteCompletion(t *testing.T) {
	// WinWait must not return before the origins' puts are remotely
	// complete (enforced by WinComplete's semantics).
	k, w := testWorld(t, 2, 1, 1, nil)
	var waitDone, putIssued sim.Time
	w.Launch(func(r *Rank) {
		size := int64(0)
		if r.ID() == 0 {
			size = 1 << 20
		}
		win := r.WinAllocate(size, false)
		if r.ID() == 0 {
			r.WinPost(win, []int{1})
			r.WinWait(win)
			waitDone = r.Now()
		} else {
			r.WinStart(win, []int{0})
			putIssued = r.Now()
			r.Put(win, 0, 0, Symbolic(1<<20))
			r.WinComplete(win)
		}
		r.Barrier()
	})
	k.Run()
	// 1 MiB at 3 GB/s is ~340us; WinWait must reflect that transfer.
	if waitDone < putIssued+300*sim.Microsecond {
		t.Fatalf("WinWait returned at %v, too soon after put at %v", waitDone, putIssued)
	}
}

func TestPSCWRepeatedEpochs(t *testing.T) {
	// Several epochs back to back on one window must not cross-match.
	k, w := testWorld(t, 2, 2, 1, nil)
	const epochs = 5
	w.Launch(func(r *Rank) {
		size := int64(0)
		if r.ID() == 0 {
			size = 8
		}
		win := r.WinAllocate(size, false)
		for e := 0; e < epochs; e++ {
			if r.ID() == 0 {
				r.WinPost(win, []int{1})
				r.WinWait(win)
			} else {
				r.WinStart(win, []int{0})
				r.Put(win, 0, 0, Symbolic(8))
				r.WinComplete(win)
			}
		}
		r.Barrier()
	})
	k.Run()
}

// TestUnlockWaitsOnlyItsTarget holds locks on two targets, puts to
// both and unlocks them one at a time: each unlock waits for its own
// target's puts and no others, and the other target's stay in the
// ledger until its own unlock. Target 1 shares the origin's node, so
// its unlock traffic does not queue behind target 2's put on the NIC.
func TestUnlockWaitsOnlyItsTarget(t *testing.T) {
	const small, large = 1 << 10, 16 << 20
	k, w := testWorld(t, 3, 2, 1, nil)
	var win *Window
	var unlocked [3]sim.Time
	var pending int
	w.Launch(func(r *Rank) {
		size := int64(0)
		if r.ID() != 0 {
			size = large
		}
		win = r.WinAllocate(size, false)
		if r.ID() == 0 {
			r.WinLock(win, LockShared, 1)
			r.WinLock(win, LockShared, 2)
			r.Put(win, 2, 0, Symbolic(large))
			r.Put(win, 1, 0, Symbolic(small))
			r.WinUnlock(win, 1)
			unlocked[1] = r.Now()
			pending = len(win.origins[0].puts)
			r.WinUnlock(win, 2)
			unlocked[2] = r.Now()
		}
		r.Barrier()
	})
	k.Run()
	// The large put alone needs its wire time; the small one is done
	// long before.
	wire := sim.Time(float64(large) / w.Network().Config().InterBandwidth * 1e9)
	if unlocked[1] >= wire {
		t.Errorf("unlock of target 1 returned at %v, after the %v target 2's put needs: it waited for target 2", unlocked[1], wire)
	}
	if unlocked[2] < wire {
		t.Errorf("unlock of target 2 returned at %v, before its %d-byte put could complete (%v)", unlocked[2], large, wire)
	}
	if pending != 1 {
		t.Errorf("after the first unlock the ledger holds %d puts, want target 2's one", pending)
	}
	if n := len(win.origins[0].puts); n != 0 {
		t.Errorf("after both unlocks the ledger holds %d puts, want 0", n)
	}
	t.Logf("unlock(1) at %v, unlock(2) at %v, target 2's put wire time %v", unlocked[1], unlocked[2], wire)
}

// TestEpochMisusePanics runs each broken epoch pattern on rank 0 of a
// two-rank world (rank 1 only exposes 8 bytes) and checks the call
// panics at the origin with a message naming rank, window and, where
// one is involved, target.
func TestEpochMisusePanics(t *testing.T) {
	cases := []struct {
		name string
		body func(r *Rank, win *Window)
		want string
	}{
		{"put without epoch", func(r *Rank, win *Window) {
			r.Put(win, 1, 0, Symbolic(8))
		}, "rank 0, window 0: Put to target 1 outside any epoch"},
		{"put after unlock", func(r *Rank, win *Window) {
			r.WinLock(win, LockShared, 1)
			r.Put(win, 1, 0, Symbolic(8))
			r.WinUnlock(win, 1)
			r.Put(win, 1, 0, Symbolic(8))
		}, "rank 0, window 0: Put to target 1 outside any epoch"},
		{"unlock without lock", func(r *Rank, win *Window) {
			r.WinUnlock(win, 1)
		}, "rank 0, window 0: WinUnlock on target 1 without a WinLock"},
		{"complete without start", func(r *Rank, win *Window) {
			r.WinComplete(win)
		}, "rank 0, window 0: WinComplete without a WinStart"},
		{"wait without post", func(r *Rank, win *Window) {
			r.WinWait(win)
		}, "rank 0, window 0: WinWait without a WinPost"},
		{"double lock", func(r *Rank, win *Window) {
			r.WinLock(win, LockShared, 1)
			r.WinLock(win, LockShared, 1)
		}, "rank 0, window 0: WinLock on target 1, which it already holds"},
		{"double start", func(r *Rank, win *Window) {
			r.WinPost(win, []int{0})
			r.WinStart(win, []int{0})
			r.WinStart(win, []int{0})
		}, "rank 0, window 0: WinStart while its access epoch to [0] is open"},
		{"double post", func(r *Rank, win *Window) {
			r.WinPost(win, nil)
			r.WinPost(win, nil)
		}, "rank 0, window 0: WinPost while its exposure epoch to [] is open"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k, w := testWorld(t, 2, 1, 1, nil)
			w.Launch(func(r *Rank) {
				win := r.WinAllocate(int64(8*r.ID()), false)
				if r.ID() == 0 {
					tc.body(r, win)
				}
			})
			var got interface{}
			func() {
				defer func() { got = recover() }()
				k.Run()
			}()
			msg, _ := got.(string)
			if !strings.Contains(msg, tc.want) {
				t.Fatalf("panic %v, want one containing %q", got, tc.want)
			}
		})
	}
}

// TestOpenEpochsAtWorldEnd leaves one epoch of each kind open at the
// end of a two-rank run (body runs on both ranks): World.OpenEpochs
// names it, and a put left in an unclosed epoch is still counted live
// by LivePooled.
func TestOpenEpochsAtWorldEnd(t *testing.T) {
	cases := []struct {
		name     string
		body     func(r *Rank, win *Window)
		want     string
		livePuts int
	}{
		{"closed", func(r *Rank, win *Window) {
			r.WinFence(win)
			if r.ID() == 0 {
				r.Put(win, 1, 0, Symbolic(8))
			}
			r.WinFence(win)
		}, "", 0},
		{"unclosed put", func(r *Rank, win *Window) {
			r.WinFence(win)
			if r.ID() == 0 {
				r.Put(win, 1, 0, Symbolic(8))
			}
		}, "rank 0, window 0: 1 puts (first to target 1) not closed", 1},
		{"held lock", func(r *Rank, win *Window) {
			if r.ID() == 0 {
				r.WinLock(win, LockShared, 1)
			}
		}, "rank 0, window 0: lock on target 1 held", 0},
		{"open access epoch", func(r *Rank, win *Window) {
			if r.ID() == 0 {
				r.WinStart(win, []int{1})
			} else {
				r.WinPost(win, []int{0})
			}
		}, "rank 0, window 0: access epoch to [1] open", 0},
		{"open exposure epoch", func(r *Rank, win *Window) {
			if r.ID() == 1 {
				r.WinPost(win, nil)
			}
		}, "rank 1, window 0: exposure epoch to [] open", 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k, w := testWorld(t, 2, 1, 1, nil)
			w.Launch(func(r *Rank) {
				tc.body(r, r.WinAllocate(int64(8*r.ID()), false))
			})
			k.Run()
			err := w.OpenEpochs()
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("OpenEpochs = %v, want nil", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("OpenEpochs = %v, want an error containing %q", err, tc.want)
			}
			if _, _, puts := w.LivePooled(); puts != tc.livePuts {
				t.Fatalf("%d put completions live, want %d", puts, tc.livePuts)
			}
		})
	}
}
