package sim

// Server models a shared resource that serves requests at a fixed
// bandwidth with a fixed per-operation overhead: a NIC injection port, a
// storage target, a memory controller.
//
// Scheduling is round-robin across flows: each request belongs to a flow
// (a logical stream — one rendezvous transfer, one file-write call, one
// RMA epoch), and the server serves one queued request per flow in
// rotation. A flow that submits a burst of requests therefore cannot
// starve a paced (request-at-a-time) flow — the fairness a NIC provides
// across queue pairs. Requests without an explicit flow are each their
// own flow, which makes single-request traffic behave exactly FIFO.
//
// An optional noise function perturbs each service time, used to model
// shared (non-dedicated) resources such as the Ibex cluster's storage in
// the reproduced paper. Noise is drawn from the kernel's seeded RNG, so
// runs remain reproducible.
type Server struct {
	k *Kernel
	// Name identifies the server in traces.
	Name string
	// Bandwidth in bytes per virtual second. Zero means infinite
	// bandwidth (only PerOp applies).
	Bandwidth float64
	// PerOp is the fixed overhead charged per request.
	PerOp Time
	// Noise, if non-nil, returns a multiplicative service-time factor
	// (>= 0) for one request; 1.0 means no perturbation.
	Noise func() float64
	// ObserveService, if non-nil, is called in kernel context the moment
	// a request enters service, with the service interval [start, end).
	// Observation only: the callback must append to host-side state and
	// nothing else — no event scheduling, no randomness — the metrics
	// contract, same as the probe layer's. The nil check is the entire
	// cost on the telemetry-off hot path.
	ObserveService func(start, end Time)

	queues  map[interface{}][]*serverReq
	ring    ring[turn] // flows with pending requests, service order
	serving bool

	serviceEnd Time // completion time of the in-service request

	backlog Time // total queued (unserved) service time, for estimates
	queued  int  // requests queued or in service, for occupancy probes

	// freeReqs is a free list of recycled request objects. A busy server
	// turns over one request per served operation; pooling them removes
	// the dominant steady-state allocation of the DES hot path. Requests
	// return to the list on completion (finish) and when a stopped kernel
	// drains its queue (release via Kernel.drain).
	freeReqs *serverReq
}

// serverReq is one pooled request. It is also the action of its own
// events: the completion event once it is in service and, for
// SubmitFlowAfterOnArrive, the earlier arrival event that queues it.
type serverReq struct {
	srv     *Server
	d       Time
	fut     *Future
	onStart func()
	next    *serverReq // free-list link, nil while the request is live

	// Delayed-submit state. arriving and its arrival fields hold from
	// SubmitFlowAfterOnArrive until the arrival event. fwd makes the
	// request complete its future through one zero-delay hop: the
	// delayed submit's schedule is an arrival, a service and a
	// forwarded completion, and every digest pins those events.
	arriving bool
	fwd      bool
	flow     interface{}
	size     int64
	onArrive func()
}

// fire runs the request's pending event: its arrival at the server
// queue, or its completion.
func (req *serverReq) fire() {
	if req.arriving {
		req.srv.arrive(req)
		return
	}
	req.srv.finish(req)
}

// newReq takes a request from the free list (or allocates one) and
// binds a fresh future to it.
func (s *Server) newReq() *serverReq {
	req := s.freeReqs
	if req == nil {
		req = &serverReq{srv: s}
	} else {
		s.freeReqs = req.next
	}
	req.fut = s.k.NewFuture()
	req.next = nil
	return req
}

// release clears a request's references and returns it to the free list.
func (s *Server) release(req *serverReq) {
	*req = serverReq{srv: s, next: s.freeReqs}
	s.freeReqs = req
}

// NewServer creates a round-robin bandwidth server. bandwidth is in
// bytes per virtual second; perOp is fixed per-request overhead.
func (k *Kernel) NewServer(name string, bandwidth float64, perOp Time) *Server {
	return &Server{
		k:         k,
		Name:      name,
		Bandwidth: bandwidth,
		PerOp:     perOp,
		queues:    make(map[interface{}][]*serverReq),
	}
}

// ServiceTime returns the unperturbed service time for size bytes —
// deterministic given the config, which is what lets partitioned
// callers precompute a completion instant before service starts (the
// precomputability-as-lookahead trick in simnet). Noise, when present,
// perturbs the actual service on top of this value.
func (s *Server) ServiceTime(size int64) Time { return s.serviceTime(size) }

// serviceTime computes the unperturbed service time for size bytes.
func (s *Server) serviceTime(size int64) Time {
	d := s.PerOp
	if s.Bandwidth > 0 && size > 0 {
		d += Time(float64(size) / s.Bandwidth * float64(Second))
	}
	if d < 0 {
		d = 0
	}
	return d
}

// turn is one entry of the service rotation: a flow key whose queue
// holds requests, or a request that is its own flow. A single-request
// flow needs no queue and no key, so it is stored in the ring itself.
type turn struct {
	flow interface{}
	req  *serverReq
}

// Submit enqueues a request of size bytes as its own flow and returns a
// future that completes when the request has been fully served.
func (s *Server) Submit(size int64) *Future {
	return s.SubmitFlow(nil, size)
}

// SubmitFlow enqueues a request of size bytes on the given flow. A nil
// flow key makes the request its own flow. Requests within one flow are
// served in submission order; distinct flows share the server
// round-robin.
func (s *Server) SubmitFlow(flow interface{}, size int64) *Future {
	return s.SubmitFlowOnStart(flow, size, nil)
}

// SubmitFlowOnStart is SubmitFlow with a callback invoked (in kernel
// context) the moment the request begins service — used to anchor
// downstream resources (e.g. a receive port reservation one wire
// latency after transmission starts).
func (s *Server) SubmitFlowOnStart(flow interface{}, size int64, onStart func()) *Future {
	req := s.newReq()
	req.onStart = onStart
	s.enqueue(req, flow, size)
	return req.fut
}

// enqueue draws req's service time and starts or queues it on flow.
func (s *Server) enqueue(req *serverReq, flow interface{}, size int64) {
	d := s.serviceTime(size)
	if s.Noise != nil {
		f := s.Noise()
		if f < 0 {
			f = 0
		}
		d = Time(float64(d) * f)
	}
	req.d = d
	s.queued++
	if !s.serving {
		// Idle server: the ring and flow map are empty, so the request
		// enters service immediately, bypassing the queue structures.
		s.serving = true
		s.serviceEnd = s.k.now + d
		if s.ObserveService != nil {
			s.ObserveService(s.k.now, s.serviceEnd)
		}
		if req.onStart != nil {
			req.onStart()
		}
		s.k.afterAct(d, req)
		return
	}
	if flow == nil {
		s.ring.push(turn{req: req})
	} else {
		q, existed := s.queues[flow]
		s.queues[flow] = append(q, req)
		if !existed || len(q) == 0 {
			s.ring.push(turn{flow: flow})
		}
	}
	s.backlog += d
}

// serveNext picks the next flow in rotation and serves one of its
// requests. Runs in kernel context.
func (s *Server) serveNext() {
	for s.ring.n > 0 {
		t := s.ring.pop()
		req := t.req
		if req == nil {
			q := s.queues[t.flow]
			if len(q) == 0 {
				delete(s.queues, t.flow)
				continue
			}
			req = q[0]
			q = q[1:]
			if len(q) == 0 {
				delete(s.queues, t.flow)
			} else {
				s.queues[t.flow] = q
				s.ring.push(t) // rotate to the back
			}
		}
		s.backlog -= req.d
		s.serviceEnd = s.k.now + req.d
		if s.ObserveService != nil {
			s.ObserveService(s.k.now, s.serviceEnd)
		}
		if req.onStart != nil {
			req.onStart()
		}
		s.k.afterAct(req.d, req)
		return
	}
	s.serving = false
}

// finish completes one served request: its completion event, run in
// kernel context. The request object returns to the free list before
// the future fires so a completion callback that submits again can
// reuse it immediately. A delayed request completes its future through
// a zero-delay hop instead.
func (s *Server) finish(req *serverReq) {
	s.queued--
	fut, fwd := req.fut, req.fwd
	s.release(req)
	if fwd {
		s.k.CompleteAfter(0, fut)
	} else {
		fut.Complete()
	}
	s.serveNext()
}

// SubmitAfter behaves like SubmitFlow but the request only reaches the
// server queue after delay (e.g. network latency before a storage target
// sees a write).
func (s *Server) SubmitAfter(delay Time, size int64) *Future {
	return s.SubmitFlowAfter(nil, delay, size)
}

// SubmitFlowAfter is SubmitFlow with an arrival delay.
func (s *Server) SubmitFlowAfter(flow interface{}, delay Time, size int64) *Future {
	return s.SubmitFlowAfterOnArrive(flow, delay, size, nil)
}

// SubmitFlowAfterOnArrive is SubmitFlowAfter with a callback invoked (in
// kernel context) when the request reaches the server queue, before it
// is enqueued — the instant an observer should sample the backlog the
// request is about to join. The request is taken from the pool now and
// is itself the arrival event, so the delayed submit allocates only
// the returned future.
func (s *Server) SubmitFlowAfterOnArrive(flow interface{}, delay Time, size int64, onArrive func()) *Future {
	req := s.newReq()
	req.arriving = true
	req.fwd = true
	req.flow = flow
	req.size = size
	req.onArrive = onArrive
	s.k.afterAct(delay, req)
	return req.fut
}

// arrive is a delayed request's arrival event: the request joins the
// server exactly as a SubmitFlow made at this instant would.
func (s *Server) arrive(req *serverReq) {
	flow, onArrive := req.flow, req.onArrive
	req.arriving = false
	req.flow = nil
	req.onArrive = nil
	if onArrive != nil {
		onArrive()
	}
	s.enqueue(req, flow, req.size)
}

// BusyUntil estimates when the server's current backlog drains: the end
// of the in-service request plus all queued service time.
func (s *Server) BusyUntil() Time {
	base := s.k.now
	if s.serving && s.serviceEnd > base {
		base = s.serviceEnd
	}
	return base + s.backlog
}

// QueueDepth returns the number of requests currently queued or in
// service — the instantaneous occupancy an observability probe samples
// at submit time. Requests submitted via SubmitFlowAfter count only
// once their arrival delay has elapsed.
func (s *Server) QueueDepth() int { return s.queued }
