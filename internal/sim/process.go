package sim

import (
	"fmt"
	"iter"
)

// errAborted unwinds a parked process when the engine stops.
type errAborted struct{}

// Process is a cooperative simulated thread of control. Exactly one
// process (or event callback) executes at a time; a process gives up
// control by sleeping or waiting on a Cond, and the engine resumes it
// when its wake event fires.
type Process struct {
	eng  *Engine
	name string

	resume func() (struct{}, bool) // run the coroutine until it yields or ends
	stop   func()                  // unwind a parked coroutine
	yield  func(struct{}) bool     // suspend back to the resumer
	waking bool                    // a wake event is already scheduled
	done   bool
}

// Spawn creates a process running body and schedules its first
// activation at the current time. The body runs as an iter.Pull
// coroutine: it starts on its first wake and never runs concurrently
// with the engine or another process.
func (e *Engine) Spawn(name string, body func(p *Process)) *Process {
	p := &Process{eng: e, name: name}
	p.resume, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(errAborted); !ok {
					panic(r) // iter.Pull re-raises it in the resumer
				}
			}
		}()
		p.yield = yield
		body(p)
		p.done = true
	})
	e.procs = append(e.procs, p)
	p.scheduleWake(0)
	return p
}

// Name returns the process name given at Spawn.
func (p *Process) Name() string { return p.name }

// Engine returns the engine the process runs on.
func (p *Process) Engine() *Engine { return p.eng }

// Now returns the current simulation time.
func (p *Process) Now() Time { return p.eng.now }

// park gives up the event-loop token and suspends until woken.
// The caller must have arranged a wake (scheduleWake or a Cond).
// Rather than yielding straight back to Run, park dispatches the next
// events itself (Engine.next): when the first dispatchable process
// wake is this process's own — the common case for short sleeps —
// park returns without any coroutine switch at all. A false yield
// means Stop is unwinding the process.
func (p *Process) park() {
	if !p.eng.next(p) && !p.yield(struct{}{}) {
		panic(errAborted{})
	}
}

// scheduleWake arranges for the process to resume after delay cycles.
// It is idempotent per park: a second wake for the same park is a bug.
// The wake is a direct process event, not a closure — waking a process
// allocates nothing and dispatches without an indirect func call.
func (p *Process) scheduleWake(delay Time) {
	if p.waking {
		panic(fmt.Sprintf("sim: double wake of process %q", p.name))
	}
	p.waking = true
	p.eng.scheduleProc(delay, p)
}

// next dispatches events on behalf of the calling process as it parks.
// It executes fn-events inline and stops at the first runnable process
// wake it pops: when that wake is self's own, next returns true and
// the caller continues immediately with no coroutine switch; otherwise
// it records the woken process in Engine.handoff for Run to resume
// once the caller has yielded. When the heap drains or the next event
// lies past the horizon, handoff stays nil. Events still fire in exact
// (time, seq) order, so schedules are bit-identical to a central loop.
func (e *Engine) next(self *Process) bool {
	for e.events.len() > 0 {
		if e.events.a[0].at > e.horizon {
			break
		}
		ev := e.events.pop()
		e.now = ev.at
		if ev.p == nil {
			ev.fn()
			continue
		}
		ev.p.waking = false
		if ev.p.done {
			continue
		}
		if ev.p == self {
			return true
		}
		e.handoff = ev.p
		return false
	}
	return false
}

// Sleep suspends the process for d cycles. Sleep(0) yields to events
// scheduled earlier at the current instant and resumes in order.
func (p *Process) Sleep(d Time) {
	p.scheduleWake(d)
	p.park()
}
