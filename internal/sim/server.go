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

	// head and tail delimit the service rotation, a FIFO threaded
	// through the queued requests' turn links: the oldest queued request
	// of each keyed flow, and every queued request without a flow (its
	// own turn). A keyed flow's later requests hang off its oldest one
	// through their later links; the kernel's flow table (flowKey) holds
	// its newest, where the next request of the flow is appended.
	head, tail *serverReq
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
// until it arrives. turn and later are its queue links while it waits
// (see Server.head), flow its flow key from submission on. The request
// is 96 bytes: a busy server pools one per queued request.
type serverReq struct {
	srv   *Server
	d     Time // service time; a delayed request's size until it arrives
	done  Action
	hook  Action
	next  *serverReq // pool link, nil while the request is live
	turn  *serverReq // next in the service rotation
	later *serverReq // its flow's next queued request
	flow  interface{}

	// arriving holds from SubmitFlowAfterOnArriveTo until the arrival
	// event. fwd makes the request fire its completion through one
	// zero-delay hop: the delayed submit's schedule is an arrival, a
	// service and a forwarded completion, and every digest pins those
	// events.
	arriving bool
	fwd      bool
}

// flowKey names one keyed flow of one server in its kernel's flow
// table. A key is per server: simnet uses one flow key on a sender's
// tx port and a receiver's rx port at the same time.
type flowKey struct {
	srv  *Server
	flow interface{}
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

// newReq takes a request from the kernel's pool and binds it to s, the
// caller's completion and flow.
func (s *Server) newReq(done Action, flow interface{}) *serverReq {
	req := s.k.reqs.Get()
	req.srv = s
	req.done = done
	req.flow = flow
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

// OpenFlows returns the number of keyed flows with a request queued on
// one of the kernel's servers: zero once every server is idle. Read it
// after the run, not from inside one.
func (k *Kernel) OpenFlows() int { return len(k.flows) }

// InitServer resets s to an idle round-robin bandwidth server on k.
// bandwidth is in bytes per virtual second; perOp is fixed per-request
// overhead. A server is embedded by value in the object that owns it (a
// node's ports, a file system's targets), and neither it nor its flows
// allocate.
func (k *Kernel) InitServer(s *Server, bandwidth float64, perOp Time) {
	*s = Server{k: k, Bandwidth: bandwidth, PerOp: perOp}
}

// ServiceTime returns the unperturbed service time for size bytes.
// Noise, when present, perturbs the actual service on top of this
// value.
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
	req := s.newReq(done, flow)
	req.hook = onStart
	s.enqueue(req, size)
}

// enqueue draws req's service time and starts or queues it on its flow.
func (s *Server) enqueue(req *serverReq, size int64) {
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
		// Idle server: the rotation and the server's flows are empty, so
		// the request enters service immediately, bypassing the queue.
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
	if req.flow == nil {
		s.rotate(req)
	} else {
		key := flowKey{s, req.flow}
		if last := s.k.flows[key]; last != nil {
			last.later = req
		} else {
			s.rotate(req) // the flow's first queued request takes its turn
		}
		s.k.flows[key] = req
	}
	s.backlog += d
}

// rotate puts req at the back of the service rotation.
func (s *Server) rotate(req *serverReq) {
	if s.tail == nil {
		s.head = req
	} else {
		s.tail.turn = req
	}
	s.tail = req
}

// serveNext serves the request at the front of the rotation. If its
// flow has requests left, the next one goes to the back of the
// rotation; otherwise the flow leaves the kernel's flow table. Runs in
// kernel context.
func (s *Server) serveNext() {
	req := s.head
	if req == nil {
		s.serving = false
		return
	}
	if s.head = req.turn; s.head == nil {
		s.tail = nil
	}
	if req.flow != nil {
		if req.later != nil {
			s.rotate(req.later)
		} else {
			delete(s.k.flows, flowKey{s, req.flow})
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
	req := s.newReq(done, flow)
	req.arriving = true
	req.fwd = true
	req.d = Time(size)
	req.hook = onArrive
	s.k.AfterAction(delay, req)
}

// arrive is a delayed request's arrival event: the request joins the
// server exactly as a SubmitFlowOnStartTo made at this instant would.
func (s *Server) arrive(req *serverReq) {
	onArrive, size := req.hook, int64(req.d)
	req.arriving = false
	req.hook = nil
	if onArrive != nil {
		onArrive.fire()
	}
	s.enqueue(req, size)
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
