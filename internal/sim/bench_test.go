package sim

import "testing"

// The kernel micro-benchmarks measure the DES hot path in isolation —
// ns/event and allocs/event — so regressions in the scheduler itself
// are visible in-tree without running a full simulation sweep
// (BENCH_*.json tracks these across PRs).

// BenchmarkKernelEventThroughput drives the kernel's dominant event mix:
// a process submitting to a bandwidth server and waiting for completion.
// One iteration costs a server submit, a pre-bound completion event, a
// future completion and a process wakeup — the pattern every simulated
// transfer and file write reduces to.
func BenchmarkKernelEventThroughput(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel(1)
	srv := k.NewServer("nic", 1e9, 100*Nanosecond)
	remaining := b.N
	k.Spawn("driver", func(p *Proc) {
		for ; remaining > 0; remaining-- {
			p.Wait(srv.Submit(1024))
		}
	})
	k.Run()
}

// BenchmarkKernelTimerWheel measures bare timer events: schedule-only
// load with no server or process involvement, the floor cost of one
// heap push + pop + fire.
func BenchmarkKernelTimerWheel(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel(1)
	remaining := b.N
	var tick func()
	tick = func() {
		if remaining--; remaining > 0 {
			k.After(Microsecond, tick)
		}
	}
	k.After(Microsecond, tick)
	k.Run()
}

// BenchmarkSpawnYield measures the process scheduling path: one Yield is
// a dispatch event plus two coroutine switches (suspend + resume).
func BenchmarkSpawnYield(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel(1)
	remaining := b.N
	k.Spawn("yielder", func(p *Proc) {
		for ; remaining > 0; remaining-- {
			p.Yield()
		}
	})
	k.Run()
}
