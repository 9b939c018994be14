//go:build go1.23

// Package sim implements a conservative, process-oriented discrete-event
// simulation engine with virtual time.
//
// Every simulated process (an MPI rank, in this repository) runs as a
// coroutine with its own virtual clock. The engine resumes exactly one
// process at a time — always the ready process with the smallest
// (virtual time, id) pair — so simulations are fully deterministic: the
// same program produces bit-identical virtual timings on every run and on
// every host machine.
//
// Processes advance their clocks with Advance, park themselves with Block
// and are released by other processes through Wake. Shared hardware
// (disks, NICs, lock managers) is modelled by Server, a virtual-time FIFO
// queue. The scheduling invariant — the running process always holds the
// minimum clock among ready processes, and Wake never moves a clock
// backwards — guarantees that every Server observes requests in
// nondecreasing virtual-time order, which keeps the queueing model causal.
//
// Run is a single scheduler loop over the processes' iter.Pull coroutines:
// pop the ready process with the minimum (now, id) from a binary min-heap,
// count the dispatch and resume it. A process that must let another run —
// an Advance that loses the minimum, or a Block — yields back to the loop,
// so a dispatch costs two coroutine switches (yield, then resume) instead
// of a channel send plus a goroutine park and wake. An Advance that still
// holds the minimum clock — the common case inside compute loops —
// continues without switching at all. NewReferenceEngine retains the
// original linear-scan scheduler as an oracle: both schedulers produce
// identical dispatch sequences (see DESIGN.md §13 for the equivalence
// argument).
//
// When the simulation fails — a deadlock, or a process body panicking —
// Run stops every coroutine: a parked process's yield returns false, its
// park panics with an internal sentinel, and its deferred cleanup runs
// before Run returns.
//
// This file needs go1.23 for iter.Pull. The build constraint raises its
// language version without raising go.mod's go line, which would force
// every module that replaces this one (such as perfbench) to update its
// own go.mod; the constraint can go once go.mod says go 1.23 or later.
package sim

import (
	"fmt"
	"iter"
	"sort"
	"strings"
)

// procState tracks where a process is in its lifecycle.
type procState int

const (
	stateReady procState = iota
	stateRunning
	stateBlocked
	stateDone
)

func (s procState) String() string {
	switch s {
	case stateReady:
		return "ready"
	case stateRunning:
		return "running"
	case stateBlocked:
		return "blocked"
	case stateDone:
		return "done"
	}
	return "unknown"
}

// killed is the sentinel panic that unwinds a process after the engine has
// died (deadlock or another process's panic). The coroutine wrapper
// swallows it, so a stopped process runs its deferred cleanup and ends
// instead of leaking.
type killed struct{}

// Reason is a literal block reason for Proc.Block.
type Reason string

func (r Reason) String() string { return string(r) }

// Proc is a simulated process. A Proc is created by Engine.Spawn and its
// methods may only be called from inside its own body function, except for
// the read-only accessors ID, Name and Now.
type Proc struct {
	id     int
	name   string
	engine *Engine

	now    float64
	state  procState
	reason fmt.Stringer // why blocked, rendered only in deadlock reports
	woken  bool         // Wake delivered, dispatch pending (duplicate detection)

	body  func(p *Proc)
	next  func() (struct{}, bool) // resume the coroutine (Run's loop only)
	stop  func()                  // end the coroutine (Run's teardown only)
	yield func(struct{}) bool     // suspend back to Run's loop (park only)

	// trace is an opaque per-process observability context (owned by
	// package obs). The engine never reads it; it rides on the Proc so
	// instrumentation deep in the stack can find its tracer without
	// threading a parameter through every layer.
	trace any

	// class is the service class shared servers use to arbitrate between
	// tenants (0 = the default class). Like trace it rides on the Proc so
	// the storage stack can find the requester's class without threading a
	// parameter through every layer; the engine itself never reads it.
	class int
}

// ID returns the process id (dense, starting at 0 in spawn order).
func (p *Proc) ID() int { return p.id }

// Name returns the human-readable name given at Spawn time.
func (p *Proc) Name() string { return p.name }

// Now returns the process's current virtual time in seconds.
func (p *Proc) Now() float64 { return p.now }

// Engine returns the engine that owns this process.
func (p *Proc) Engine() *Engine { return p.engine }

// SetTrace attaches an opaque observability context to this process (nil
// detaches). Tracing never advances virtual clocks, so an attached context
// cannot perturb the simulation.
func (p *Proc) SetTrace(v any) { p.trace = v }

// Trace returns the context set by SetTrace, or nil.
func (p *Proc) Trace() any { return p.trace }

// SetClass tags this process with a service class. Servers running a
// class-aware scheduling policy (Server.SetPolicy) use the class to
// arbitrate between tenants; under the default FIFO policy the class is
// ignored, so tagging never perturbs a single-tenant run.
func (p *Proc) SetClass(c int) { p.class = c }

// Class returns the service class set by SetClass (0 by default).
func (p *Proc) Class() int { return p.class }

// Advance moves this process's virtual clock forward by d seconds and
// yields to the scheduler so that any process with an earlier clock can
// run first. Negative d panics: virtual time never flows backwards.
//
// When the advanced clock is still the minimum among ready processes the
// process simply keeps running — no coroutine switch. That fast path is
// exact: the heap top is the minimum of every other ready process, so the
// scheduler would have picked this process again anyway. The reference
// engine has no fast path: it always yields and lets its linear scan pick.
func (p *Proc) Advance(d float64) {
	if d < 0 {
		panic(fmt.Sprintf("sim: process %q advanced by negative duration %g", p.name, d))
	}
	e := p.engine
	if e.err != nil {
		panic(killed{})
	}
	p.now += d
	if !e.ref {
		if len(e.heap) == 0 || lessProc(p, e.heap[0]) {
			e.events++
			return
		}
		e.heapPush(p)
	}
	p.state = stateReady
	p.park()
}

// Yield gives the scheduler a chance to run earlier processes without
// moving this process's clock. It is equivalent to Advance(0).
func (p *Proc) Yield() { p.Advance(0) }

// AdvanceTo moves the clock forward to absolute virtual time t. If t is in
// this process's past the clock is left unchanged (a process can wait for a
// moment that has already passed, which costs nothing).
func (p *Proc) AdvanceTo(t float64) {
	if t > p.now {
		p.Advance(t - p.now)
	} else {
		p.Yield()
	}
}

// Block parks the process until another process calls Engine.Wake on it.
// reason is rendered only if the simulation deadlocks, so callers can pass
// a pointer to state they already hold instead of formatting a string on
// every block. On return the clock has been moved to max(previous now,
// wake time).
func (p *Proc) Block(reason fmt.Stringer) {
	if p.engine.err != nil {
		panic(killed{})
	}
	p.state = stateBlocked
	p.reason = reason
	p.park()
	p.reason = nil
	p.woken = false
}

// park suspends the process back to Run's loop until its next dispatch.
// A false yield means Run is tearing the simulation down: unwind.
func (p *Proc) park() {
	if !p.yield(struct{}{}) {
		panic(killed{})
	}
}

// run is the process's coroutine: it runs the body, counts the process
// done when the body returns, and records a panic as the engine's failure.
func (p *Proc) run(yield func(struct{}) bool) {
	p.yield = yield
	defer func() {
		r := recover()
		if _, isKilled := r.(killed); r != nil && !isKilled && p.engine.err == nil {
			p.engine.err = &PanicError{ProcName: p.name, Value: r}
		}
	}()
	p.body(p)
	p.state = stateDone
	p.engine.done++
}

// Engine owns a set of processes and schedules them in virtual time.
// The zero value is not usable; call NewEngine.
type Engine struct {
	procs   []*Proc
	started bool
	done    int
	events  int64 // scheduler dispatches; see Events

	// heap is the ready queue: a binary min-heap on (now, id) holding every
	// ready process except the one currently running. Keys are immutable
	// while queued — a running process is never in the heap and Wake pushes
	// a blocked process exactly once — so no decrease-key is ever needed.
	heap []*Proc

	// ref selects the retained reference scheduler (linear scan, no fast
	// path); see NewReferenceEngine.
	ref bool

	// err is the simulation's failure (deadlock or panic). Once set the
	// engine is dead: every engine call panics with the killed sentinel.
	err error
}

// NewEngine returns an empty engine ready for Spawn calls.
func NewEngine() *Engine {
	return &Engine{}
}

// NewReferenceEngine returns an engine that schedules with the original
// O(n)-per-dispatch linear scan and never takes the Advance fast path. It
// is retained as the oracle for the heap scheduler: any program must
// produce the identical dispatch sequence, clocks and event count on both.
// Tests use it; production callers want NewEngine.
func NewReferenceEngine() *Engine {
	e := NewEngine()
	e.ref = true
	return e
}

// Spawn registers a new process whose body is run when Engine.Run is
// called. Spawn must not be called after Run has started.
func (e *Engine) Spawn(name string, body func(p *Proc)) *Proc {
	if e.started {
		panic("sim: Spawn called after Run")
	}
	p := &Proc{
		id:     len(e.procs),
		name:   name,
		engine: e,
		state:  stateReady,
		body:   body,
	}
	e.procs = append(e.procs, p)
	return p
}

// Wake releases a blocked process so it resumes with its clock set to
// max(its clock, at). Wake must be called from a running process (or
// before Run from the spawning goroutine is not allowed — processes start
// ready, not blocked). Waking a process that is not blocked panics: the
// layers above (message queues) are responsible for pairing blocks and
// wakes exactly.
func (e *Engine) Wake(target *Proc, at float64) {
	if e.err != nil {
		panic(killed{})
	}
	if target.woken {
		panic(fmt.Sprintf("sim: duplicate Wake(%q)", target.name))
	}
	if target.state != stateBlocked {
		panic(fmt.Sprintf("sim: Wake(%q) but process is %v", target.name, target.state))
	}
	target.woken = true
	if at > target.now {
		target.now = at
	}
	target.state = stateReady
	if !e.ref {
		e.heapPush(target)
	}
}

// DeadlockError reports that no process can make progress: every
// unfinished process is blocked with no pending wake.
type DeadlockError struct {
	// Blocked lists "name@time: reason" for each stuck process.
	Blocked []string
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock, %d processes blocked: %s",
		len(e.Blocked), strings.Join(e.Blocked, "; "))
}

// PanicError reports that a process body panicked.
type PanicError struct {
	ProcName string
	Value    any
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("sim: process %q panicked: %v", e.ProcName, e.Value)
}

// Run executes the simulation until every process has finished. It returns
// a *DeadlockError if processes remain but none can run, and a *PanicError
// if a process body panics. Run may be called only once.
//
// Run is the scheduler loop: it resumes the next process, which runs until
// it parks or ends. On either error every unfinished process is stopped
// and runs its deferred cleanup before Run returns, so a failed simulation
// does not leak goroutines.
func (e *Engine) Run() error {
	if e.started {
		panic("sim: Run called twice")
	}
	e.started = true
	for _, p := range e.procs {
		p.next, p.stop = iter.Pull(p.run)
		if !e.ref {
			e.heapPush(p)
		}
	}
	for e.err == nil {
		p := e.pick()
		if p == nil {
			if e.done < len(e.procs) {
				e.err = e.deadlock()
			}
			break
		}
		e.events++
		p.state = stateRunning
		p.next()
	}
	for _, p := range e.procs {
		p.stop()
	}
	return e.err
}

// pick removes and returns the next process to run (nil when no process is
// ready): the heap minimum, or the linear-scan minimum on the reference
// engine.
func (e *Engine) pick() *Proc {
	if e.ref {
		return e.minReady()
	}
	return e.heapPop()
}

// deadlock reports that no process can run: every unfinished process is
// blocked with no pending wake.
func (e *Engine) deadlock() error {
	var blocked []string
	for _, p := range e.procs {
		if p.state == stateBlocked {
			blocked = append(blocked, fmt.Sprintf("%s@%.6f: %s", p.name, p.now, p.reason))
		}
	}
	sort.Strings(blocked)
	return &DeadlockError{Blocked: blocked}
}

// lessProc is the scheduling order: earliest virtual time first, process
// id as the tie-break.
func lessProc(a, b *Proc) bool {
	return a.now < b.now || (a.now == b.now && a.id < b.id)
}

// heapPush adds p to the ready heap.
func (e *Engine) heapPush(p *Proc) {
	h := append(e.heap, p)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !lessProc(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	e.heap = h
}

// heapPop removes and returns the minimum of the ready heap (nil when
// empty).
func (e *Engine) heapPop() *Proc {
	h := e.heap
	n := len(h)
	if n == 0 {
		return nil
	}
	top := h[0]
	n--
	h[0] = h[n]
	h[n] = nil // release the reference for GC
	h = h[:n]
	e.heap = h
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && lessProc(h[l], h[min]) {
			min = l
		}
		if r < n && lessProc(h[r], h[min]) {
			min = r
		}
		if min == i {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	return top
}

// minReady picks the ready process with the smallest (now, id) — the
// reference engine's linear scan, unchanged from the original scheduler.
func (e *Engine) minReady() *Proc {
	var best *Proc
	for _, p := range e.procs {
		if p.state != stateReady {
			continue
		}
		if best == nil || lessProc(p, best) {
			best = p
		}
	}
	return best
}

// MaxTime returns the largest virtual clock across all processes. It is
// meaningful after Run has returned nil and represents the simulated
// makespan of the whole program.
func (e *Engine) MaxTime() float64 {
	var m float64
	for _, p := range e.procs {
		if p.now > m {
			m = p.now
		}
	}
	return m
}

// NumProcs returns the number of spawned processes.
func (e *Engine) NumProcs() int { return len(e.procs) }

// Events returns how many times the scheduler dispatched a process — one
// per Advance/Yield/Block resume, fast-path continues included. It is the
// engine's unit of work, so wall-clock events/sec is the natural
// simulator-throughput metric, and the count itself is deterministic.
func (e *Engine) Events() int64 { return e.events }
