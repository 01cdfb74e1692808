package platform

import (
	"testing"

	"collio/internal/sim"
)

func TestPaperPlatformShapes(t *testing.T) {
	crill, ibex := Crill(), Ibex()
	// §IV: crill 16×48 cores, ibex 108×40 (Skylake partition).
	if crill.Nodes != 16 || crill.RanksPerNode != 48 {
		t.Fatalf("crill geometry %dx%d", crill.Nodes, crill.RanksPerNode)
	}
	if ibex.Nodes != 108 || ibex.RanksPerNode != 40 {
		t.Fatalf("ibex geometry %dx%d", ibex.Nodes, ibex.RanksPerNode)
	}
	// Paper-reported point-to-point bandwidths: ~2.6 vs ~3.4 GB/s.
	if crill.InterBandwidth >= ibex.InterBandwidth {
		t.Fatal("ibex must have the faster interconnect")
	}
	// Both use 1 MiB stripes over 16 targets.
	for _, pf := range []Platform{crill, ibex} {
		if pf.StripeSize != 1<<20 || pf.StorageTargets != 16 {
			t.Fatalf("%s storage geometry: stripe=%d targets=%d", pf.Name, pf.StripeSize, pf.StorageTargets)
		}
		if pf.EagerLimit != 512<<10 {
			t.Fatalf("%s eager limit %d, want 512 KiB", pf.Name, pf.EagerLimit)
		}
	}
	// crill: node-local HDD storage, dedicated (low noise); ibex:
	// external fast storage, shared (high noise).
	if !crill.NodeLocalStorage || ibex.NodeLocalStorage {
		t.Fatal("storage placement flags wrong")
	}
	if crill.TargetBandwidth >= ibex.TargetBandwidth {
		t.Fatal("ibex storage must be faster")
	}
	if crill.StorageNoiseSigma >= ibex.StorageNoiseSigma {
		t.Fatal("ibex must be the noisier platform")
	}
}

func TestInstantiateLimits(t *testing.T) {
	if _, err := Crill().Instantiate(0, 1); err == nil {
		t.Fatal("zero procs accepted")
	}
	if _, err := Crill().Instantiate(16*48+1, 1); err == nil {
		t.Fatal("oversubscription accepted")
	}
	cl, err := Crill().Instantiate(768, 1)
	if err != nil {
		t.Fatalf("max procs rejected: %v", err)
	}
	if cl.World.Size() != 768 {
		t.Fatalf("world size %d", cl.World.Size())
	}
}

func TestCrillStorageSpansAllNodes(t *testing.T) {
	// Even a 1-node job sees the full 16-node BeeGFS on crill.
	cl, err := Crill().Instantiate(48, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cl.Net.NumNodes() != 16 {
		t.Fatalf("crill network has %d nodes, want 16 (storage hosts)", cl.Net.NumNodes())
	}
}

func TestIbexNodesScaleWithJob(t *testing.T) {
	cl, err := Ibex().Instantiate(80, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cl.Net.NumNodes() != 2 {
		t.Fatalf("ibex 80-rank job uses %d nodes, want 2", cl.Net.NumNodes())
	}
}

func TestRunNoiseReproducibleAndVarying(t *testing.T) {
	bw := func(seed int64) float64 {
		cl, err := Ibex().Instantiate(4, seed)
		if err != nil {
			t.Fatal(err)
		}
		return cl.Net.Config().InterBandwidth
	}
	if bw(1) != bw(1) {
		t.Fatal("run noise not reproducible for fixed seed")
	}
	if bw(1) == bw(2) {
		t.Fatal("run noise identical across seeds (regime noise missing)")
	}
}

func TestLognormalMeanPreserving(t *testing.T) {
	f := lognormal(0.2)
	rng := sim.NewKernel(9).Rand()
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		v := f(rng.Float64)
		if v <= 0 {
			t.Fatal("lognormal produced non-positive factor")
		}
		sum += v
	}
	mean := sum / n
	if mean < 0.97 || mean > 1.03 {
		t.Fatalf("lognormal mean = %v, want ~1", mean)
	}
	if lognormal(0) != nil {
		t.Fatal("zero sigma should disable noise")
	}
}

func TestDeterministicInstantiation(t *testing.T) {
	run := func() sim.Time {
		cl, err := Crill().Instantiate(8, 77)
		if err != nil {
			t.Fatal(err)
		}
		f := cl.FS.Open("x")
		done := sim.Time(0)
		cl.Kernel.Spawn("w", 0, func(p *sim.Proc) {
			f.Write(p, 0, 0, 4<<20, nil)
			done = p.Now()
		})
		cl.Kernel.Run()
		return done
	}
	if run() != run() {
		t.Fatal("platform instantiation not deterministic")
	}
}
