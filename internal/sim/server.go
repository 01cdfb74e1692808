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

	// queues holds each flow's pending requests in submission order;
	// an emptied queue returns to freeQueues, so a busy server opening
	// and closing flows (one per rendezvous transfer, one per file
	// write) reuses their buffers instead of allocating one per flow.
	queues     map[interface{}]*ring[*serverReq]
	freeQueues []*ring[*serverReq]
	ring       ring[turn] // flows with pending requests, service order
	serving    bool

	serviceEnd Time // completion time of the in-service request

	backlog Time // total queued (unserved) service time, for estimates
	queued  int  // requests queued or in service, for occupancy probes
}

// serverReq is one pooled request. It is also the action of its own
// events: the completion event once it is in service and, for
// SubmitFlowAfterOnArriveTo, the earlier arrival event that queues it.
// done is the caller's completion, fired at the end of service; hook
// is the caller's start hook, or a delayed request's arrival hook
// until it arrives. The request stays at 80 bytes: a busy server pools
// one per queued request.
type serverReq struct {
	srv  *Server
	d    Time // service time; a delayed request's size until it arrives
	done Action
	hook Action
	next *serverReq // pool link, nil while the request is live

	// Delayed-submit state. arriving and flow hold from
	// SubmitFlowAfterOnArriveTo until the arrival event. fwd makes the
	// request fire its completion through one zero-delay hop: the
	// delayed submit's schedule is an arrival, a service and a
	// forwarded completion, and every digest pins those events.
	arriving bool
	fwd      bool
	flow     interface{}
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

// newReq takes a request from the kernel's pool and binds it to s and
// the caller's completion.
func (s *Server) newReq(done Action) *serverReq {
	req := s.k.reqs.Get()
	req.srv = s
	req.done = done
	return req
}

// releaseReq clears a request's references and returns it to k's pool.
func (k *Kernel) releaseReq(req *serverReq) {
	*req = serverReq{}
	k.reqs.Put(req)
}

// LiveRequests returns the number of server requests taken from the
// kernel's pool and not yet returned: zero once every submitted request
// has been served, or drained by Stop. Read it after the run, not from
// inside one.
func (k *Kernel) LiveRequests() int { return k.reqs.Live() }

// NewServer creates a round-robin bandwidth server. bandwidth is in
// bytes per virtual second; perOp is fixed per-request overhead.
func (k *Kernel) NewServer(bandwidth float64, perOp Time) *Server {
	return &Server{
		k:         k,
		Bandwidth: bandwidth,
		PerOp:     perOp,
		queues:    make(map[interface{}]*ring[*serverReq]),
	}
}

// ServiceTime returns the unperturbed service time for size bytes —
// deterministic given the config, which is what lets partitioned
// callers precompute a completion instant before service starts (the
// precomputability-as-lookahead trick in simnet). Noise, when present,
// perturbs the actual service on top of this value.
func (s *Server) ServiceTime(size int64) Time {
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

// SubmitFlowOnStartTo enqueues a request of size bytes on the given
// flow; done fires at the end of its service. A nil flow key makes the
// request its own flow. Requests within one flow are served in
// submission order; distinct flows share the server round-robin. done
// and onStart are Actions the caller owns, so the server allocates
// nothing: a *Future done completes there, a Func or Event done runs
// there, in kernel context. onStart, if non-nil, fires the moment the
// request begins service — used to anchor downstream resources (e.g. a
// receive port reservation one wire latency after transmission starts).
func (s *Server) SubmitFlowOnStartTo(done Action, flow interface{}, size int64, onStart Action) {
	req := s.newReq(done)
	req.hook = onStart
	s.enqueue(req, flow, size)
}

// enqueue draws req's service time and starts or queues it on flow.
func (s *Server) enqueue(req *serverReq, flow interface{}, size int64) {
	d := s.ServiceTime(size)
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
		if req.hook != nil {
			req.hook.fire()
		}
		s.k.AfterAction(d, req)
		return
	}
	if flow == nil {
		s.ring.push(turn{req: req})
	} else {
		q := s.queues[flow]
		if q == nil {
			if n := len(s.freeQueues); n > 0 {
				q = s.freeQueues[n-1]
				s.freeQueues = s.freeQueues[:n-1]
			} else {
				q = new(ring[*serverReq])
			}
			s.queues[flow] = q
			s.ring.push(turn{flow: flow})
		}
		q.push(req)
	}
	s.backlog += d
}

// serveNext picks the next flow in rotation and serves one of its
// requests. Runs in kernel context.
func (s *Server) serveNext() {
	if s.ring.n == 0 {
		s.serving = false
		return
	}
	t := s.ring.pop()
	req := t.req
	if req == nil {
		// A flow's turn is in the ring exactly while its queue is
		// non-empty.
		q := s.queues[t.flow]
		req = q.pop()
		if q.n == 0 {
			delete(s.queues, t.flow)
			s.freeQueues = append(s.freeQueues, q)
		} else {
			s.ring.push(t) // rotate to the back
		}
	}
	s.backlog -= req.d
	s.serviceEnd = s.k.now + req.d
	if s.ObserveService != nil {
		s.ObserveService(s.k.now, s.serviceEnd)
	}
	if req.hook != nil {
		req.hook.fire()
	}
	s.k.AfterAction(req.d, req)
}

// finish completes one served request: its completion event, run in
// kernel context. The request object returns to the pool before
// its completion fires so a completion callback that submits again can
// reuse it immediately. A delayed request fires its completion through
// a zero-delay hop instead.
func (s *Server) finish(req *serverReq) {
	s.queued--
	done, fwd := req.done, req.fwd
	s.k.releaseReq(req)
	if fwd {
		s.k.AfterAction(0, done)
	} else {
		done.fire()
	}
	s.serveNext()
}

// SubmitFlowAfterOnArriveTo is SubmitFlowOnStartTo for a request that
// reaches the server queue only after delay (e.g. network latency before
// a storage target sees a write). onArrive, if non-nil, fires (in kernel
// context) when the request arrives, before it is enqueued — the instant
// an observer should sample the backlog the request is about to join.
// done fires one zero-delay hop after service ends. The request is taken
// from the pool now and is itself the arrival event.
func (s *Server) SubmitFlowAfterOnArriveTo(done Action, flow interface{}, delay Time, size int64, onArrive Action) {
	req := s.newReq(done)
	req.arriving = true
	req.fwd = true
	req.flow = flow
	req.d = Time(size)
	req.hook = onArrive
	s.k.AfterAction(delay, req)
}

// arrive is a delayed request's arrival event: the request joins the
// server exactly as a SubmitFlowOnStartTo made at this instant would.
func (s *Server) arrive(req *serverReq) {
	flow, onArrive, size := req.flow, req.hook, int64(req.d)
	req.arriving = false
	req.flow, req.hook = nil, nil
	if onArrive != nil {
		onArrive.fire()
	}
	s.enqueue(req, flow, size)
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
// at submit time. Requests submitted via SubmitFlowAfterOnArriveTo
// count only once their arrival delay has elapsed.
func (s *Server) QueueDepth() int { return s.queued }
