package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"collio/internal/exp"
	"collio/internal/platform"
	"collio/internal/sim"
	"collio/internal/tune"
	"collio/internal/workload"
	"collio/internal/workload/ior"
	"collio/internal/workload/tileio"
)

var selectHier = &benchWorkload{
	name: "select-hier",
	why: "the tuner: cold 20-point hierarchical Select on crill/ior, ibex/tileio-256, crill/ior-256KiB at 96 ranks, " +
		"store reopened, 1000 warm repeats; op = one Select (1003 per pass)",
	measure: measureSelect,
	traced:  tracedSelect,
}

// selCell is one tuner question.
type selCell struct {
	label string
	gen   workload.Generator
	pf    platform.Platform
	np    int
	want  int64
}

// selPlan is a select-hier pass: the questions, the seed's order of the
// cold queries and the seed's sequence of warm repeats.
type selPlan struct {
	cells []selCell
	order []int
	warm  []int
}

func newSelPlan(o options) (*selPlan, error) {
	np, warm := gridRanks, 1000
	// At these sizes the first two questions send at or above the eager
	// limit, so the hierarchical family routes every send directly. The
	// third, IOR at 256 KiB per block, sends below it, so hierarchical
	// points pre-combine on the node leaders over the intra-node links.
	p := &selPlan{cells: []selCell{
		{label: "crill/ior", gen: ior.Default(), pf: platform.Crill(), np: np},
		{label: "ibex/tileio-256", gen: tileio.Tile256(), pf: platform.Ibex(), np: np},
		{label: "crill/ior-256KiBx4", gen: ior.Config{BlockSize: 256 << 10, Segments: 4}, pf: platform.Crill(), np: np},
	}}
	if o.tiny {
		p.cells, warm = p.cells[2:], 20
	}
	for i := range p.cells {
		c := &p.cells[i]
		c.label += fmt.Sprintf("/%d", c.np)
		b, err := viewBytes(c.gen, c.np)
		if err != nil {
			return nil, err
		}
		c.want = b
	}
	rng := rand.New(rand.NewSource(o.seed))
	p.order = rng.Perm(len(p.cells))
	for k := 0; k < warm; k++ {
		p.warm = append(p.warm, rng.Intn(len(p.cells)))
	}
	if o.plantBadBytes {
		p.cells[p.order[0]].want++
	}
	return p, nil
}

func tunerOptions(storePath string) tune.Options {
	// The tuner's sweep pool is the one place ops use two workers.
	return tune.Options{Space: tune.HierarchicalSpace(), Parallel: 2, CachePath: storePath}
}

// sessionStats is what one select-hier pass observed.
type sessionStats struct {
	cold                []tune.Selection // by cell index
	coldDur             []time.Duration  // by cell index
	warmDur             []time.Duration
	openDur             time.Duration
	coldStats, warmStat tune.CacheStats
	storeBytes          int64
	wall                time.Duration
}

// session runs one select-hier pass: a tuner on a fresh store answers
// each question cold, is closed, and a fresh tuner reopening the store
// answers the warm repeats. Every cold answer must carry the right byte
// count in each candidate and match ref (an earlier pass) exactly;
// every warm answer must match its cold answer bit for bit, all hits.
func session(o options, r *report, p *selPlan, tr *tracer, t *timing, ref []tune.Selection) (*sessionStats, error) {
	tmp := filepath.Join(o.out, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmp, "select-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "store.jsonl")
	s := &sessionStats{cold: make([]tune.Selection, len(p.cells)), coldDur: make([]time.Duration, len(p.cells))}
	start := time.Now()

	var tu *tune.Tuner
	tr.do("tune", "tune.New (empty store)", func() { tu, err = tune.New(tunerOptions(path)) })
	if err != nil {
		return nil, err
	}
	for _, i := range p.order {
		c := &p.cells[i]
		var sel tune.Selection
		tr.nextOp()
		d := t.op(func() {
			tr.do("tune", "Tuner.Select cold "+c.label, func() { sel, err = tu.Select(c.gen, c.pf, c.np) })
		})
		r.attempted++
		s.cold[i], s.coldDur[i] = sel, d
		if err != nil {
			r.fail("%s: cold Select: %v", c.label, err)
			continue
		}
		if problem := checkCold(c, sel); problem != "" {
			r.fail("%s: cold Select: %s", c.label, problem)
		} else if ref != nil && !sameSelection(sel, ref[i]) {
			r.fail("%s: cold Select differs from an earlier pass", c.label)
		}
	}
	s.coldStats = tu.Cache().Stats()
	tr.do("tune", "Tuner.Close", func() { err = tu.Close() })
	if err != nil {
		return nil, err
	}

	s.openDur = tr.do("tune", "tune.New (reopen store)", func() { tu, err = tune.New(tunerOptions(path)) })
	if err != nil {
		return nil, err
	}
	for _, i := range p.warm {
		c := &p.cells[i]
		var sel tune.Selection
		tr.nextOp()
		d := t.op(func() {
			tr.do("tune", "Tuner.Select warm", func() { sel, err = tu.Select(c.gen, c.pf, c.np) })
		})
		s.warmDur = append(s.warmDur, d)
		r.attempted++
		switch {
		case err != nil:
			r.fail("%s: warm Select: %v", c.label, err)
		case sel.Hits != sel.Evaluated:
			r.fail("%s: warm Select hit %d of %d points", c.label, sel.Hits, sel.Evaluated)
		case !sameSelection(sel, s.cold[i]):
			r.fail("%s: warm Select differs from the cold answer", c.label)
		}
	}
	s.warmStat = tu.Cache().Stats()
	tr.do("tune", "Tuner.Close", func() { err = tu.Close() })
	if err != nil {
		return nil, err
	}
	if fi, err := os.Stat(path); err == nil {
		s.storeBytes = fi.Size()
	}
	s.wall = time.Since(start)
	return s, nil
}

// checkCold applies the correctness gate to a cold answer: every point
// of the space evaluated, every candidate wrote the question's bytes.
func checkCold(c *selCell, sel tune.Selection) string {
	if n := tune.HierarchicalSpace().Size(); sel.Evaluated != n || sel.Skipped != 0 {
		return fmt.Sprintf("evaluated %d and skipped %d of %d points", sel.Evaluated, sel.Skipped, n)
	}
	for _, cand := range sel.Candidates {
		if cand.Result.BytesWritten != c.want {
			return fmt.Sprintf("candidate %v/%v: BytesWritten = %d, want %d",
				cand.Config.Algorithm, cand.Config.BufferSize, cand.Result.BytesWritten, c.want)
		}
	}
	return ""
}

// sameSelection reports whether two answers agree bit for bit, apart
// from which candidates were cache hits.
func sameSelection(a, b tune.Selection) bool {
	if a.Evaluated != b.Evaluated || a.Skipped != b.Skipped || len(a.Candidates) != len(b.Candidates) ||
		a.Best.Config != b.Best.Config || a.Best.Result != b.Best.Result {
		return false
	}
	for i := range a.Candidates {
		x, y := a.Candidates[i], b.Candidates[i]
		if x.Config != y.Config || x.Result != y.Result || (x.Err == nil) != (y.Err == nil) {
			return false
		}
	}
	return true
}

// selSim is a pass's simulated time: the winners' makespans.
func selSim(s *sessionStats) sim.Time {
	var t sim.Time
	for _, sel := range s.cold {
		t += sel.Best.Result.Elapsed
	}
	return t
}

// measureSelect is the untraced select-hier run. Setup opens a store
// and runs one untimed warm-up query (a cold Select at 16 ranks).
func measureSelect(o options, r *report) error {
	return measurePasses(o, r, func(bool) (passFunc, error) {
		p, err := newSelPlan(o)
		if err != nil {
			return nil, err
		}
		if err := warmUpTuner(o); err != nil {
			return nil, err
		}
		var ref []tune.Selection
		return func(t *timing) sim.Time {
			s, err := session(o, r, p, nil, t, ref)
			if err != nil {
				r.fail("select-hier pass: %v", err)
				return 0
			}
			if ref == nil {
				ref = s.cold
			}
			return selSim(s)
		}, nil
	})
}

func warmUpTuner(o options) error {
	dir, err := os.MkdirTemp(o.out, "warmup-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	tu, err := tune.New(tunerOptions(filepath.Join(dir, "store.jsonl")))
	if err != nil {
		return err
	}
	if _, err := tu.Select(ior.Default(), platform.Ibex(), 16); err != nil {
		return fmt.Errorf("warm-up query: %w", err)
	}
	return tu.Close()
}

// tracedSelect is the traced select-hier run: one untraced pass, one
// pass with spans, then the layer decomposition. Every point of both
// cold sweeps runs again sequentially (the pool-speedup baseline) and
// each result must equal the tuner's.
func tracedSelect(o options, r *report, tr *tracer, a *acc) error {
	p, err := newSelPlan(o)
	if err != nil {
		return err
	}
	var t timing
	t.newPass()
	plain, err := session(o, r, p, nil, &t, nil)
	if err != nil {
		return err
	}
	s, err := session(o, r, p, tr, &t, plain.cold)
	if err != nil {
		return err
	}
	a.add("wall.untraced_s", plain.wall.Seconds())
	a.add("wall.traced_s", s.wall.Seconds())
	for _, d := range s.coldDur {
		a.add("tune.cold_ms", msOf(d))
		a.add("tune.cold_n", 1)
	}
	for _, d := range s.warmDur {
		a.add("tune.warm_us", float64(d)/float64(time.Microsecond))
		a.add("tune.warm_n", 1)
	}
	a.add("tune.hits", float64(s.warmStat.Hits))
	a.add("tune.lookups", float64(s.warmStat.Hits+s.warmStat.Misses))
	a.add("tune.simulations", float64(s.coldStats.Simulations+s.warmStat.Simulations))
	a.add("tune.coalesced", float64(s.coldStats.Coalesced+s.warmStat.Coalesced))
	a.add("tune.store_open_ms", msOf(s.openDur))
	a.add("tune.store_kib", float64(s.storeBytes)/1024)

	for _, i := range p.order {
		c := &p.cells[i]
		sel := s.cold[i]
		tr.nextOp()
		tr.begin("bench", "sequential sweep "+c.label)
		for _, cand := range sel.Candidates {
			if cand.Err != nil {
				continue
			}
			var res exp.Result
			d := tr.do("exp", "Execute (sequential point)", func() { res, err = exp.ExecuteConfig(cand.Config) })
			a.add("tune.sequential_ms", msOf(d))
			r.attempted++
			if err != nil || res != cand.Result {
				r.fail("%s: sequential Execute of %v/%v/hier=%v gave %+v (err %v), the tuner cached %+v",
					c.label, cand.Config.Algorithm, cand.Config.BufferSize, cand.Config.Hierarchical, res, err, cand.Result)
			}
		}
		tr.end()
	}
	// Decompose each question's fastest flat and fastest hierarchical
	// configuration, so the probe sees both families.
	for _, i := range p.order {
		c := &p.cells[i]
		for _, hier := range []bool{false, true} {
			best, ok := fastest(s.cold[i], hier)
			if !ok {
				r.fail("%s: no feasible hierarchical=%v candidate", c.label, hier)
				continue
			}
			tr.nextOp()
			win := cell{label: fmt.Sprintf("%s %v/%v/hier=%v", c.label, best.Config.Algorithm, best.Config.BufferSize, hier),
				spec: best.Config.Spec(), want: c.want}
			traceExec(r, tr, a, &win)
		}
	}
	return nil
}

// fastest returns the answer's fastest candidate of one family.
func fastest(sel tune.Selection, hier bool) (tune.Candidate, bool) {
	for _, c := range sel.RankedCandidates() {
		if c.Config.Hierarchical == hier {
			return c, true
		}
	}
	return tune.Candidate{}, false
}
