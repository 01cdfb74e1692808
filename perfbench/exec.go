package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"collio/internal/exp"
	"collio/internal/fcoll"
	"collio/internal/platform"
	"collio/internal/sim"
	"collio/internal/simnet"
	"collio/internal/workload"
	"collio/internal/workload/flashio"
	"collio/internal/workload/ior"
	"collio/internal/workload/tileio"
)

// gridRanks is the rank count of paper-grid and read-grid: two crill
// nodes, two and a half ibex nodes.
const gridRanks = 96

// paperGenerators are the paper's four benchmark configurations at the
// evaluation sweep's small problem size (the "-s" cases of
// exp.QuickSweep): a quarter of IOR's block, half of each tile
// dimension, half the FLASH blocks per process.
func paperGenerators() []workload.Generator {
	iorC, t256, t1m, flash := ior.Default(), tileio.Tile256(), tileio.Tile1M(), flashio.Default()
	iorC.BlockSize /= 4
	t256.ElemsX, t256.ElemsY, t256.Label = t256.ElemsX/2, t256.ElemsY/2, t256.Label+"-s"
	t1m.ElemsX, t1m.ElemsY, t1m.Label = t1m.ElemsX/2, t1m.ElemsY/2, t1m.Label+"-s"
	flash.BlocksPerProc /= 2
	return []workload.Generator{iorC, t256, t1m, flash}
}

var paperGrid = &benchWorkload{
	name: "paper-grid",
	why: "the paper's own traffic: 12 exact collective writes at 96 ranks, each small-size paper generator x primitive once, " +
		"platforms alternated, algorithms rotated; op = one Execute",
	measure: func(o options, r *report) error { return measureExec(o, r, paperGridCells) },
	traced:  func(o options, r *report, tr *tracer, a *acc) error { return tracedExec(o, r, tr, a, paperGridCells) },
}

// paperGridCells runs every {generator} x {primitive} pair once, on
// alternating platforms, and rotates the five paper algorithms over the
// cells: every generator meets both platforms and every primitive runs
// twice on each.
func paperGridCells(o options) (cells []cell, warm exp.Spec) {
	np, gens := gridRanks, paperGenerators()
	if o.tiny {
		np, gens = 16, gens[:1]
	}
	pfs := platform.Platforms()
	for g, gen := range gens {
		for p, prim := range fcoll.Primitives {
			i := len(cells)
			pf := pfs[(g+p)%len(pfs)]
			alg := fcoll.Algorithms[i%len(fcoll.Algorithms)]
			cells = append(cells, cell{
				label: fmt.Sprintf("%s/%s/%s/%s", pf.Name, gen.Name(), prim, alg),
				spec: exp.Spec{Platform: pf, NProcs: np, Gen: gen, Algorithm: alg, Primitive: prim,
					Seed: o.seed*1000 + int64(i)},
			})
		}
	}
	return cells, exp.Spec{Platform: platform.Ibex(), NProcs: np, Gen: gens[0]}
}

var readGrid = &benchWorkload{
	name: "read-grid",
	why: "the read path: 20 exact two-sided collective reads at 96 ranks, each small-size paper generator x paper algorithm " +
		"once, platforms alternated; op = one Execute",
	measure: func(o options, r *report) error { return measureExec(o, r, readGridCells) },
	traced:  func(o options, r *report, tr *tracer, a *acc) error { return tracedExec(o, r, tr, a, readGridCells) },
}

// readGridCells runs every {generator} x {algorithm} pair once as a
// collective read, on alternating platforms.
func readGridCells(o options) (cells []cell, warm exp.Spec) {
	np, gens, algs := gridRanks, paperGenerators(), fcoll.Algorithms
	if o.tiny {
		np, gens, algs = 16, gens[:1], algs[:2]
	}
	pfs := platform.Platforms()
	for g, gen := range gens {
		for a, alg := range algs {
			i := len(cells)
			pf := pfs[(g+a)%len(pfs)]
			cells = append(cells, cell{
				label: fmt.Sprintf("%s/%s/read/%s", pf.Name, gen.Name(), alg),
				spec: exp.Spec{Platform: pf, NProcs: np, Gen: gen, Algorithm: alg, Read: true,
					Seed: o.seed*1000 + int64(i)},
			})
		}
	}
	return cells, exp.Spec{Platform: platform.Ibex(), NProcs: np, Gen: gens[0], Read: true}
}

var scaleBundled = &benchWorkload{
	name: "scale-bundled",
	why: "the bundled cohort executor on noise-free ibex: IOR 1 MiB/rank at 16384 and 65536 ranks x {chunked, flow} x " +
		"{no-overlap, write-comm-2-overlap}, 8 ops; op = one Execute",
	measure: func(o options, r *report) error { return measureExec(o, r, scaleBundledCells) },
	traced: func(o options, r *report, tr *tracer, a *acc) error {
		return tracedExec(o, r, tr, a, scaleBundledCells)
	},
}

func scaleBundledCells(o options) (cells []cell, warm exp.Spec) {
	ranks := []int{16384, 65536}
	if o.tiny {
		ranks = []int{1024}
	}
	for _, np := range ranks {
		for _, nm := range []simnet.NetModel{simnet.ModelChunked, simnet.ModelFlow} {
			for _, alg := range []fcoll.Algorithm{fcoll.NoOverlap, fcoll.WriteComm2Overlap} {
				i := len(cells)
				cells = append(cells, cell{
					label: fmt.Sprintf("ibex/ior-1MiB/%d/%s/%s", np, nm, alg),
					spec:  exp.BundledScaleSpec(np, alg, 1<<20, o.seed*1000+int64(i), nm),
				})
			}
		}
	}
	return cells, exp.BundledScaleSpec(ranks[0], fcoll.NoOverlap, 1<<20, 0, simnet.ModelChunked)
}

// prepareCells builds a workload's cells and the order the seed gives
// them, and sets each cell's expected byte count from the views its
// generator produces.
func prepareCells(o options, r *report, build func(options) ([]cell, exp.Spec)) ([]cell, []int, exp.Spec, error) {
	cells, warm := build(o)
	want := map[string]int64{}
	for i := range cells {
		c := &cells[i]
		key := fmt.Sprintf("%s/%d", c.spec.Gen.Name(), c.spec.NProcs)
		if _, ok := want[key]; !ok {
			b, err := viewBytes(c.spec.Gen, c.spec.NProcs)
			if err != nil {
				return nil, nil, warm, err
			}
			want[key] = b
			if nominal := c.spec.Gen.TotalBytes(c.spec.NProcs); nominal != b {
				r.note("%s: Generator.TotalBytes(%d) = %d but its views carry %d bytes; ops are checked against the views",
					c.spec.Gen.Name(), c.spec.NProcs, nominal, b)
			}
		}
		c.want = want[key]
	}
	order := rand.New(rand.NewSource(o.seed)).Perm(len(cells))
	if o.plantBadBytes {
		cells[order[0]].want++
	}
	return cells, order, warm, nil
}

// viewSeed is the seed exp.Execute generates job views with; the layout
// of some generators (flashio's jittered block counts) depends on it.
// The Config encoding publishes it as workload_seed.
var viewSeed = func() int64 {
	cfg, err := exp.Spec{Platform: platform.Ibex(), NProcs: 1, Gen: ior.Default()}.Config()
	if err != nil {
		panic(err)
	}
	b, err := cfg.CanonicalBytes()
	if err != nil {
		panic(err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "workload_seed="); ok {
			seed, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				panic(err)
			}
			return seed
		}
	}
	panic("exp.Config encoding has no workload_seed line")
}()

// viewBytes is the byte count of a generator's views at np ranks.
func viewBytes(g workload.Generator, np int) (int64, error) {
	views, err := g.Views(np, false, viewSeed)
	if err != nil {
		return 0, err
	}
	var b int64
	for _, jv := range views {
		b += jv.TotalBytes()
	}
	return b, nil
}

// measureExec is the untraced run of an Execute workload. Setup builds
// the cells and runs one untimed warm-up op; a pass runs every cell
// once, in the seed's order. Every pass must reproduce the first pass's
// results exactly.
func measureExec(o options, r *report, build func(options) ([]cell, exp.Spec)) error {
	return measurePasses(o, r, func(first bool) (passFunc, error) {
		// Notes from the repeated setups would repeat the first one's.
		notes := r
		if !first {
			notes = &report{}
		}
		cells, order, warm, err := prepareCells(o, notes, build)
		if err != nil {
			return nil, err
		}
		if _, err := exp.Execute(warm); err != nil {
			return nil, fmt.Errorf("warm-up op: %w", err)
		}
		ref := make([]*exp.Result, len(cells))
		return func(t *timing) sim.Time {
			var simTotal sim.Time
			for _, i := range order {
				c := &cells[i]
				var res exp.Result
				var err error
				t.op(func() { res, err = exp.Execute(c.spec) })
				r.attempted++
				if !c.check(r, res, err) {
					continue
				}
				switch {
				case ref[i] == nil:
					ref[i] = &res
				case *ref[i] != res:
					r.fail("%s: result changed between passes: %+v, then %+v", c.label, *ref[i], res)
				}
				simTotal += res.Elapsed
			}
			return simTotal
		}, nil
	})
}

// tracedExec is the traced run of an Execute workload: one pass in the
// seed's order, each op run untraced and then decomposed by traceExec.
func tracedExec(o options, r *report, tr *tracer, a *acc, build func(options) ([]cell, exp.Spec)) error {
	cells, order, _, err := prepareCells(o, r, build)
	if err != nil {
		return err
	}
	for _, i := range order {
		tr.nextOp()
		untraced, traced := traceExec(r, tr, a, &cells[i])
		a.add("wall.untraced_s", untraced.Seconds())
		a.add("wall.traced_s", traced.Seconds())
	}
	return nil
}
