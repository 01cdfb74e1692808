package cli

import (
	"strings"
	"testing"

	"collio/internal/fcoll"
	"collio/internal/workload/ior"
)

func TestResolvePlatform(t *testing.T) {
	c := Common{Platform: "ibex"}
	pf, err := c.ResolvePlatform()
	if err != nil || pf.Name != "ibex" {
		t.Fatalf("pf=%v err=%v", pf.Name, err)
	}
	c.Platform = "nope"
	if _, err := c.ResolvePlatform(); err == nil {
		t.Fatal("unknown platform accepted")
	}
}

func TestResolveAlgorithm(t *testing.T) {
	c := Common{Algorithm: "write-comm-overlap"}
	a, err := c.ResolveAlgorithm()
	if err != nil || a != fcoll.WriteCommOverlap {
		t.Fatalf("a=%v err=%v", a, err)
	}
	// A stale name from an older -algo list is rejected, and the error
	// lists the five accepted names.
	c.Algorithm = "dataflow-overlap"
	_, err = c.ResolveAlgorithm()
	if err == nil {
		t.Fatal("dataflow-overlap accepted")
	}
	for _, a := range fcoll.Algorithms {
		if !strings.Contains(err.Error(), a.String()) {
			t.Errorf("error %q does not list %v", err, a)
		}
	}
	c.Algorithm = "bogus"
	if _, err := c.ResolveAlgorithm(); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestResolvePrimitive(t *testing.T) {
	c := Common{Primitive: "one-sided-fence"}
	p, err := c.ResolvePrimitive()
	if err != nil || p != fcoll.OneSidedFence {
		t.Fatalf("p=%v err=%v", p, err)
	}
	c.Primitive = "zero-sided"
	if _, err := c.ResolvePrimitive(); err == nil {
		t.Fatal("unknown primitive accepted")
	}
}

func TestRunBenchmarkSmall(t *testing.T) {
	c := Common{
		Platform:  "crill",
		NProcs:    8,
		Algorithm: "write-overlap",
		Primitive: "two-sided",
		Runs:      1,
		Seed:      1,
		BufferMB:  8,
	}
	if err := c.RunBenchmark(ior.Config{BlockSize: 1 << 20, Segments: 1}); err != nil {
		t.Fatal(err)
	}
}

func TestRunBenchmarkAllAlgos(t *testing.T) {
	c := Common{
		Platform:  "ibex",
		NProcs:    8,
		Primitive: "two-sided",
		Runs:      1,
		Seed:      1,
		BufferMB:  8,
		AllAlgos:  true,
	}
	if err := c.RunBenchmark(ior.Config{BlockSize: 1 << 20, Segments: 1}); err != nil {
		t.Fatal(err)
	}
}

func TestRunBenchmarkBadFlags(t *testing.T) {
	c := Common{Platform: "mars", NProcs: 4, Algorithm: "no-overlap", Primitive: "two-sided", Runs: 1, BufferMB: 8}
	if err := c.RunBenchmark(ior.Config{BlockSize: 1 << 20, Segments: 1}); err == nil {
		t.Fatal("bad platform accepted")
	}
}
