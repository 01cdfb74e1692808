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
	srv := newServer(k, 1e9, 100*Nanosecond)
	remaining := b.N
	k.Spawn("driver", func(p *Proc) {
		for ; remaining > 0; remaining-- {
			p.Wait(submit(srv, 1024))
		}
	})
	k.Run()
}

// BenchmarkServerColdFlows measures the server queue from cold, the way
// every simulation starts: one iteration builds a fresh kernel with 16
// servers and submits 8 requests on each of 64 keyed flows to every
// server before the kernel runs, so 1,024 flows queue behind busy
// servers at once, each flow key on all 16 servers, as a rendezvous
// transfer's key is on its sender's and receiver's ports. allocs/op is
// what the queues cost beyond the kernel, the servers and the pooled
// requests.
func BenchmarkServerColdFlows(b *testing.B) {
	const servers, flows, reqs = 16, 64, 8
	keys := make([]interface{}, flows)
	for i := range keys {
		keys[i] = &keys[i]
	}
	done := Func(func() {})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := NewKernel(1)
		srvs := make([]Server, servers)
		for s := range srvs {
			k.InitServer(&srvs[s], 1e9, 10*Nanosecond)
			for r := 0; r < reqs; r++ {
				for _, key := range keys {
					srvs[s].SubmitFlowOnStartTo(done, key, 1024, nil)
				}
			}
		}
		k.Run()
	}
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

// BenchmarkKernelSameInstant measures the same-instant lane: bursts of
// zero-delay events, the shape of completion forwarding, where one
// operation's completion schedules the next hop at the same instant.
// One iteration is one zero-delay push, pop and fire.
func BenchmarkKernelSameInstant(b *testing.B) {
	b.ReportAllocs()
	const burst = 64
	k := NewKernel(1)
	remaining := b.N
	hop := func() {}
	var tick func()
	tick = func() {
		n := min(burst, remaining)
		remaining -= n
		for i := 0; i < n; i++ {
			k.After(0, hop)
		}
		if remaining > 0 {
			k.After(Microsecond, tick)
		}
	}
	k.After(Microsecond, tick)
	k.Run()
}
