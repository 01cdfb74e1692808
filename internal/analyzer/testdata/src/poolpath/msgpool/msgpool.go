// Fixtures for the MPI layer's pooled protocol messages. A *msg leaves
// its sender's pool at newMsg and is handed to its delivery chain by
// registering one of its bound actions (a sim.Event, or a func field);
// the engine that consumes it
// returns it with releaseMsg, after which neither its fields nor a
// second release may follow. The package is named mpi because matching
// is by package name and the message type is unexported.
package mpi

import "sim"

type msg struct {
	src, tag int
	eng      *engine
	onArrive sim.Event[msg]
	runFn    func()
}

type engine struct{ k *sim.Kernel }

type Rank struct{ eng *engine }

func (r *Rank) newMsg(tag int) *msg { return &msg{tag: tag} }

func (e *engine) releaseMsg(m *msg) {}

// --- flagged: double release, straight and through a join ---

func (e *engine) badDoubleRelease(m *msg) {
	e.releaseMsg(m)
	e.releaseMsg(m) // want `pooled handle "m" used after releaseMsg`
}

func (e *engine) badDoubleReleaseOnOnePath(m *msg, matched bool) {
	if matched {
		e.releaseMsg(m)
	}
	e.releaseMsg(m) // want `pooled handle "m" used after releaseMsg`
}

// --- flagged: use after release ---

func (e *engine) badReadAfterRelease(m *msg) int {
	e.releaseMsg(m)
	return m.src // want `pooled handle "m" used after releaseMsg`
}

func (e *engine) badCallbackAfterRelease(m *msg) {
	e.releaseMsg(m)
	e.k.After(10, func() {
		_ = m.tag // want `pooled handle "m" used after releaseMsg`
	})
}

// --- flagged: a message neither handed off nor released ---

func (r *Rank) badMessageDropped(f *sim.Future, ready bool) {
	m := r.newMsg(3) // want `pooled handle "m" acquired here may reach return without releaseMsg \(released on some paths but not all\)`
	if !ready {
		return
	}
	r.eng.releaseMsg(m)
	_ = f
}

func (m *msg) badReadAfterReleaseThroughReceiver() int {
	m.eng.releaseMsg(m)
	return m.tag // want `pooled handle "m" used after releaseMsg`
}

func (m *msg) badDoubleReleaseThroughReceiver() {
	m.eng.releaseMsg(m)
	m.eng.releaseMsg(m) // want `pooled handle "m" used after releaseMsg`
}

// --- clean: read before one release on every path ---

// The receiver m.eng is read before the call releases m.
func (m *msg) goodReleaseThroughOwnEngine() {
	m.eng.releaseMsg(m)
}

func (e *engine) goodReadThenRelease(m *msg) (int, int) {
	src, tag := m.src, m.tag
	e.releaseMsg(m)
	return src, tag
}

func (e *engine) goodReleaseOnEachBranch(m *msg, matched bool) {
	if matched {
		e.releaseMsg(m)
		return
	}
	e.releaseMsg(m)
}

// --- clean: handed to its delivery chain through a bound action ---

func (r *Rank) goodHandedToDelivery(delivered *sim.Future) {
	m := r.newMsg(7)
	m.src = 1
	delivered.Then(&m.onArrive)
}

func (r *Rank) badEventReadNotHandedOff(delivered *sim.Future) {
	m := r.newMsg(7) // want `pooled handle "m" acquired here may reach return without releaseMsg`
	ev := m.onArrive // a copy of the event, not a registration
	delivered.Then(&ev)
}

func (r *Rank) goodHandedToDelayedStep(k *sim.Kernel) {
	m := r.newMsg(9)
	k.After(150, m.runFn)
}
