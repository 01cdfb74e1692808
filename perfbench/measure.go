package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	"collio/internal/sim"
)

// setupRepeats is how many times an untraced run sets its workload up;
// setup_s is the median.
const setupRepeats = 15

// minPasses is the fewest passes an untraced run makes, so every op has
// a median over at least three samples.
const minPasses = 3

// timing records the timed ops of an untraced run. Every pass runs the
// same ops in the same order, so op k of one pass is op k of the next.
type timing struct {
	// wallMS and cpuMS hold one slice of op times per pass.
	wallMS, cpuMS  [][]float64
	mallocs, bytes uint64
}

// newPass starts recording a pass.
func (t *timing) newPass() {
	t.wallMS, t.cpuMS = append(t.wallMS, nil), append(t.cpuMS, nil)
}

// op times one op and returns its wall time.
func (t *timing) op(f func()) time.Duration {
	c0, t0 := cpuTime(), time.Now()
	f()
	d := time.Since(t0)
	p := len(t.wallMS) - 1
	t.wallMS[p] = append(t.wallMS[p], msOf(d))
	t.cpuMS[p] = append(t.cpuMS[p], msOf(cpuTime()-c0))
	return d
}

// typicalOps returns each op's median time over the passes. Host noise
// here is mostly fast and independent from op to op, so a per-op median
// discards it where a pass total would keep it.
func typicalOps(perPass [][]float64) []float64 {
	typ := make([]float64, len(perPass[0]))
	for k := range typ {
		var xs []float64
		for _, pass := range perPass {
			if k < len(pass) {
				xs = append(xs, pass[k])
			}
		}
		typ[k] = median(xs)
	}
	return typ
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// pass runs one whole pass of a workload's ops, recording each op's
// host time in t, and returns the pass's simulated time.
type passFunc func(t *timing) sim.Time

// measurePasses is the untraced measurement shared by every workload:
// set up setupRepeats times (setup builds the inputs and runs one
// untimed warm-up op, and returns the pass to time), then run whole
// passes, at least minPasses of them, until the budget is spent.
func measurePasses(o options, r *report, setup func(first bool) (passFunc, error)) error {
	var setups []float64
	var pass passFunc
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		p, err := setup(i == 0)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		pass = p
	}

	var t timing
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs0, bytes0 := ms.Mallocs, ms.TotalAlloc
	start := time.Now()
	var sims []sim.Time
	for {
		t.newPass()
		p0 := time.Now()
		sims = append(sims, pass(&t))
		// Start another pass only if it is likely to end within budget.
		if n := len(sims); n >= minPasses && time.Since(start)+time.Since(p0) > time.Duration(o.seconds*float64(time.Second)) {
			break
		}
	}
	runtime.ReadMemStats(&ms)
	t.mallocs, t.bytes = ms.Mallocs-mallocs0, ms.TotalAlloc-bytes0

	for i, s := range sims {
		if s != sims[0] {
			r.fail("pass %d simulated %v, pass 0 simulated %v: same ops, same seed", i, s, sims[0])
		}
	}
	wall, cpu := typicalOps(t.wallMS), typicalOps(t.cpuMS)
	ops := float64(max(r.attempted, 1))
	r.set("wall_s", sum(wall)/1000)
	r.set("cpu_s", sum(cpu)/1000)
	r.set("op_p50_ms", hdMedian(wall))
	r.set("sim_ms", simMS(sims[0]))
	r.set("setup_s", median(setups))
	r.set("allocs_per_op", float64(t.mallocs)/ops)
	r.set("alloc_mib_per_op", float64(t.bytes)/ops/(1<<20))
	r.set("peak_rss_mib", peakRSSMiB())
	r.extra = append(r.extra,
		fmt.Sprintf("%-26s %14.6g ratio (%d of %d ops)", "failed_frac", float64(r.failed)/ops, r.failed, r.attempted),
		fmt.Sprintf("%-26s %14d count (%d per pass)", "ops", r.attempted, len(wall)),
		fmt.Sprintf("%-26s %14d count", "passes", len(t.wallMS)))
	if len(wall) >= 100 {
		r.extra = append(r.extra, fmt.Sprintf("%-26s %14.6g ms (p50 %.6g ms, %d ops per pass)", "op_p90_ms",
			quantile(wall, 0.9), hdMedian(wall), len(wall)))
	}
	return nil
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's peak resident set (VmHWM); Linux reports
// ru_maxrss in KiB.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func simMS(t sim.Time) float64 { return float64(t) / float64(sim.Millisecond) }

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func mib(b int64) float64 { return float64(b) / (1 << 20) }
