package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// refServer is a reference copy of the server's earlier queue: a map
// from flow key to that flow's ring of requests, and a ring of turns in
// service order. It serves as the oracle for the flow-table queue: the
// same submits must be served in the same order at the same instants.
// It pushes its events at the same points as Server, so the two
// kernels break same-instant ties alike.
type refServer struct {
	k         *Kernel
	bandwidth float64
	perOp     Time

	queues  map[interface{}]*ring[*refReq]
	ring    ring[refTurn]
	serving bool
}

// refTurn is one entry of the reference rotation: a flow key whose
// queue holds requests, or a request that is its own flow.
type refTurn struct {
	flow interface{}
	req  *refReq
}

type refReq struct {
	srv       *refServer
	d         Time
	done      Action
	hook      Action
	arriving  bool
	fwd       bool
	flow      interface{}
	arriveLen int64
}

func (req *refReq) fire() {
	if req.arriving {
		req.arriving = false
		if req.hook != nil {
			req.hook.fire()
			req.hook = nil
		}
		req.srv.enqueue(req, req.flow, req.arriveLen)
		return
	}
	s := req.srv
	if req.fwd {
		s.k.AfterAction(0, req.done)
	} else {
		req.done.fire()
	}
	s.serveNext()
}

func newRefServer(k *Kernel, bandwidth float64, perOp Time) *refServer {
	return &refServer{k: k, bandwidth: bandwidth, perOp: perOp, queues: make(map[interface{}]*ring[*refReq])}
}

func (s *refServer) submit(done Action, flow interface{}, size int64, onStart Action) {
	s.enqueue(&refReq{srv: s, done: done, hook: onStart}, flow, size)
}

func (s *refServer) submitAfter(done Action, flow interface{}, delay Time, size int64, onArrive Action) {
	req := &refReq{srv: s, done: done, hook: onArrive, arriving: true, fwd: true, flow: flow, arriveLen: size}
	s.k.AfterAction(delay, req)
}

func (s *refServer) enqueue(req *refReq, flow interface{}, size int64) {
	d := s.perOp
	if s.bandwidth > 0 && size > 0 {
		d += Time(float64(size) / s.bandwidth * float64(Second))
	}
	req.d = d
	if !s.serving {
		s.serving = true
		if req.hook != nil {
			req.hook.fire()
		}
		s.k.AfterAction(d, req)
		return
	}
	if flow == nil {
		s.ring.push(refTurn{req: req})
		return
	}
	q := s.queues[flow]
	if q == nil {
		q = new(ring[*refReq])
		s.queues[flow] = q
		s.ring.push(refTurn{flow: flow})
	}
	q.push(req)
}

func (s *refServer) serveNext() {
	if s.ring.n == 0 {
		s.serving = false
		return
	}
	t := s.ring.pop()
	req := t.req
	if req == nil {
		q := s.queues[t.flow]
		req = q.pop()
		if q.n == 0 {
			delete(s.queues, t.flow)
		} else {
			s.ring.push(t) // rotate to the back
		}
	}
	if req.hook != nil {
		req.hook.fire()
	}
	s.k.AfterAction(req.d, req)
}

// orderOp is one planned submit of the differential test. A chained op
// is submitted by its parent's completion rather than at its own time.
type orderOp struct {
	at      Time
	srv     int
	flow    interface{}
	size    int64
	delayed bool
	delay   Time
	chained bool
	child   int // op its completion submits, or -1
}

// orderPlan draws n seeded random ops over nsrv servers: requests that
// are their own flow, keyed flows whose keys recur on every server, and
// delayed submits, clustered on a few instants so that queues form and
// same-instant ties are common.
func orderPlan(seed int64, nsrv, n int) []orderOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]orderOp, n)
	for i := range ops {
		op := &ops[i]
		op.at = Time(rng.Intn(20)) * 50
		op.srv = rng.Intn(nsrv)
		if rng.Intn(3) > 0 {
			op.flow = fmt.Sprint("flow", rng.Intn(5))
		}
		op.size = int64(1 + rng.Intn(200))
		if rng.Intn(3) == 0 {
			op.delayed = true
			op.delay = Time(rng.Intn(4)) * 25
		}
		op.child = -1
	}
	// Chain a fifth of the ops behind an earlier op's completion.
	for i := 1; i < n; i++ {
		if rng.Intn(5) == 0 {
			if p := rng.Intn(i); ops[p].child < 0 && !ops[p].chained {
				ops[p].child, ops[i].chained = i, true
			}
		}
	}
	return ops
}

// orderLog is the observable schedule of one run: every service start
// (or delayed arrival) and completion, with its op and instant.
type orderLog []string

// runOrder drives plan through submit, which submits op i (in kernel
// context) with the given completion and hook, and returns the log.
func runOrder(k *Kernel, plan []orderOp, submit func(i int, done, hook Action)) orderLog {
	var log orderLog
	var issue func(i int)
	issue = func(i int) {
		hook := Func(func() { log = append(log, fmt.Sprintf("%v hook %d", k.Now(), i)) })
		done := Func(func() {
			log = append(log, fmt.Sprintf("%v done %d", k.Now(), i))
			if c := plan[i].child; c >= 0 {
				issue(c)
			}
		})
		submit(i, done, hook)
	}
	for i, op := range plan {
		if !op.chained {
			k.At(op.at, func() { issue(i) })
		}
	}
	k.Run()
	return log
}

// TestServerOrderMatchesReference submits the same seeded random ops to
// servers on one kernel and to reference copies of the earlier
// map-and-ring queue on another: every service start, arrival and
// completion must come in the same order at the same instant, and the
// kernel must end with no request live and no flow open.
func TestServerOrderMatchesReference(t *testing.T) {
	const nsrv, nops = 4, 400
	bw := []float64{float64(Second), 2 * float64(Second), 0, float64(Second) / 2}
	perOp := []Time{0, 3, 7, 1}
	for seed := int64(1); seed <= 20; seed++ {
		plan := orderPlan(seed, nsrv, nops)

		k := NewKernel(seed)
		srvs := make([]Server, nsrv)
		for i := range srvs {
			k.InitServer(&srvs[i], bw[i], perOp[i])
		}
		got := runOrder(k, plan, func(i int, done, hook Action) {
			op, s := &plan[i], &srvs[plan[i].srv]
			if op.delayed {
				s.SubmitFlowAfterOnArriveTo(done, op.flow, op.delay, op.size, hook)
			} else {
				s.SubmitFlowOnStartTo(done, op.flow, op.size, hook)
			}
		})
		if live, open := k.LiveRequests(), k.OpenFlows(); live != 0 || open != 0 {
			t.Fatalf("seed %d: %d requests live and %d flows open after the run", seed, live, open)
		}

		rk := NewKernel(seed)
		refs := make([]*refServer, nsrv)
		for i := range refs {
			refs[i] = newRefServer(rk, bw[i], perOp[i])
		}
		want := runOrder(rk, plan, func(i int, done, hook Action) {
			op, s := &plan[i], refs[plan[i].srv]
			if op.delayed {
				s.submitAfter(done, op.flow, op.delay, op.size, hook)
			} else {
				s.submit(done, op.flow, op.size, hook)
			}
		})
		if len(want) != 2*nops {
			t.Fatalf("seed %d: reference logged %d events, want %d", seed, len(want), 2*nops)
		}
		if !slices.Equal(got, want) {
			for j := range min(len(got), len(want)) {
				if got[j] != want[j] {
					t.Fatalf("seed %d: event %d is %q, reference %q", seed, j, got[j], want[j])
				}
			}
			t.Fatalf("seed %d: %d events, reference %d", seed, len(got), len(want))
		}
	}
}
