// Package sim provides the deterministic discrete-event simulation engine
// that drives every Falcon experiment in this repository.
//
// All protocol code in internal/falcon, internal/roce and internal/netsim is
// written as synchronous state machines that react to three kinds of events
// (ULP operations, packet arrivals, and timers). The engine delivers those
// events in strict virtual-time order, breaking ties by scheduling order, so
// a run with a fixed seed is bit-for-bit reproducible.
//
// Virtual time is an int64 nanosecond count (type Time). Nothing in the
// repository reads the wall clock; components take a *Simulator (or the
// narrower Clock interface) and schedule continuations on it.
//
// # Pending-event set
//
// A three-level hashed timing wheel (131 us, 128 ns and 1 ns slots) holds
// short-horizon timers and a binary heap parks far-future ones, cascading
// them inward as the clock advances (wheel.go; DESIGN.md §8 has the
// performance model). Steady-state scheduling is O(1), sorts nothing and
// — together with the event free list — is allocation-free. The tests
// hold it to a plain heap loop that lives only in heapref_test.go: both
// must deliver any schedule in the identical (time, seq) order.
package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"time"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation.
type Time int64

// Common durations, mirroring time.Duration conversions for readability at
// call sites (sim.Microsecond etc. are Durations, not Times).
const (
	Nanosecond  = time.Duration(1)
	Microsecond = 1000 * Nanosecond
	Millisecond = 1000 * Microsecond
	Second      = 1000 * Millisecond
)

// Add returns the time d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Duration converts a virtual timestamp to a duration since time zero.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Seconds returns the time as a float64 second count.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

func (t Time) String() string { return time.Duration(t).String() }

// Clock is the read-only view of the simulation clock. Protocol components
// that only need the current time take a Clock so they can be reused outside
// the simulator.
type Clock interface {
	Now() Time
}

// event is a scheduled callback. Events are pooled: once delivered (or once
// a cancelled event surfaces), the object returns to the simulator's free
// list and its generation counter advances, which invalidates any stale
// Timer handle still pointing at it.
//
// act is the callback: AtAction stores its Action, At and After their
// closure as a funcAction. Storing the interface inline reuses the same
// pooled object, so a schedule allocates nothing when the action value is
// pointer-shaped, as a func value is.
type event struct {
	at   Time
	seq  uint64 // tie-break: FIFO among events at the same instant
	act  Action
	gen  uint32
	dead bool
}

// funcAction is the Action of a closure scheduled with At or After.
type funcAction func()

func (f funcAction) RunAction() { f() }

// eventLess is the global delivery order: (time, seq) ascending. seq values
// are unique within a simulator, so this is a total order.
func eventLess(a, b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// eventHeap is a binary min-heap over (time, seq). Cancelled events are
// removed lazily when they surface at the root.
type eventHeap []*event

func (h eventHeap) Len() int           { return len(h) }
func (h eventHeap) Less(i, j int) bool { return eventLess(h[i], h[j]) }
func (h eventHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)        { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Scheduler names a pending-event structure. There is one, the timing
// wheel; the type, its constant and NewWithScheduler exist only because
// the benchmark module (bench/) builds its simulators with
// NewWithScheduler(seed, SchedulerWheel). Everything else calls New.
type Scheduler int

// SchedulerWheel is the timing wheel, the only Scheduler.
const SchedulerWheel Scheduler = 0

// Observer receives a callback for every event the simulator delivers.
// The (time, sequence) pair identifies one event uniquely within a run, so
// an observer that folds the stream into a digest fingerprints the entire
// schedule: two runs with the same seed and setup must produce identical
// streams (see internal/testkit.TraceHasher).
type Observer interface {
	OnEvent(at Time, seq uint64)
}

// Simulator is a single-threaded discrete-event scheduler. It is not safe
// for concurrent use; experiments that want parallelism run independent
// simulators in separate goroutines (see falconbench -parallel).
type Simulator struct {
	now Time
	seq uint64
	rng *rand.Rand
	obs Observer

	// far holds events beyond the wheel horizon.
	far eventHeap

	// wheel is the timing wheel state.
	wheel wheelState

	// free is the event free list; alloc draws from it in blocks so
	// steady-state scheduling performs no allocations.
	free []*event

	// live counts scheduled-and-not-yet-fired-or-cancelled events.
	live int

	// processed counts delivered events; synced is the prefix already
	// added to counter, the caller-owned total installed by CountInto.
	processed uint64
	synced    uint64
	counter   *atomic.Uint64
}

// New returns a simulator whose clock reads zero and whose random stream
// is seeded with seed. Two simulators built with the same seed and fed the
// same schedule produce identical runs.
func New(seed int64) *Simulator {
	return &Simulator{rng: rand.New(rand.NewSource(seed))}
}

// NewWithScheduler is New (see Scheduler).
func NewWithScheduler(seed int64, _ Scheduler) *Simulator { return New(seed) }

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Rand returns the simulation-owned random stream. All randomness in a run
// (drop decisions, jitter, workload arrivals) must come from here or from
// streams derived from it, never from the global rand.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// Processed reports how many events have been delivered so far.
func (s *Simulator) Processed() uint64 { return s.processed }

// CountInto makes the simulator add the events it delivers to *c, folded
// in when Run or RunUntil returns (not per event), so one counter may be
// shared by simulators running on several goroutines. nil stops the
// counting.
func (s *Simulator) CountInto(c *atomic.Uint64) { s.counter = c }

// SetObserver attaches an event observer (nil detaches). The hook costs one
// nil check per delivered event when unset, so it stays compiled in without
// affecting benchmark runs.
func (s *Simulator) SetObserver(o Observer) { s.obs = o }

// eventBlock is the number of events one refill allocates: 255 × 40 B
// plus the 8-byte header of an object holding pointers fills the
// 10 240-byte size class, where 256 would round up to 10 880 bytes.
const eventBlock = 255

// alloc takes an event from the free list, refilling it a block at a time
// so long runs amortize to zero allocations per scheduled event.
func (s *Simulator) alloc() *event {
	n := len(s.free)
	if n == 0 {
		blk := make([]event, eventBlock)
		for i := range blk {
			s.free = append(s.free, &blk[i])
		}
		n = len(s.free)
	}
	e := s.free[n-1]
	s.free = s.free[:n-1]
	return e
}

// recycle returns a fired or cancelled event to the free list. Bumping the
// generation invalidates outstanding Timer handles to it.
func (s *Simulator) recycle(e *event) {
	e.act = nil
	e.gen++
	s.free = append(s.free, e)
}

// Timer is a handle to a scheduled event. The zero Timer is invalid; timers
// are obtained from At/After.
type Timer struct {
	s   *Simulator
	e   *event
	gen uint32
}

// Stop cancels the timer if it has not fired. It reports whether the call
// prevented the event from firing. Cancellation is lazy: the event object
// is reclaimed when it surfaces in the schedule.
func (t Timer) Stop() bool {
	if t.e == nil || t.e.gen != t.gen || t.e.dead {
		return false
	}
	t.e.dead = true
	t.s.live--
	return true
}

// Pending reports whether the timer is still scheduled.
func (t Timer) Pending() bool { return t.e != nil && t.e.gen == t.gen && !t.e.dead }

// At schedules fn to run at time at. Scheduling in the past (before Now) is
// a programming error and panics: silently reordering time would invalidate
// experiment results.
func (s *Simulator) At(at Time, fn func()) Timer { return s.AtAction(at, funcAction(fn)) }

// Action is a typed event callback: the allocation-free alternative to a
// closure for hot paths that schedule per-packet work. A closure passed to
// At captures its state on the heap at every call site; an Action carries
// its state in the concrete value itself, and because the pooled event
// stores the interface inline, scheduling a pointer-backed Action performs
// no allocation at all. Delivery order is identical to At: an AtAction and
// an At issued back-to-back get consecutive sequence numbers, so swapping
// one form for the other never perturbs the (time, seq) event stream.
type Action interface {
	// RunAction is invoked when the event fires, exactly like a scheduled
	// closure body.
	RunAction()
}

// AtAction schedules a typed action to run at time at. Semantics match At
// in every respect (ordering, panics, Timer cancellation); only the
// callback representation differs.
func (s *Simulator) AtAction(at Time, a Action) Timer {
	if at < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, s.now))
	}
	e := s.alloc()
	e.at = at
	e.seq = s.seq
	e.act = a
	e.dead = false
	s.seq++
	s.live++
	s.wheelInsert(e)
	return Timer{s: s, e: e, gen: e.gen}
}

// After schedules fn to run d from now. Negative d is treated as zero.
func (s *Simulator) After(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return s.At(s.now.Add(d), fn)
}

// step delivers the next event at or before t: advance the clock, fire
// the observer, recycle the event object, run the callback. It reports
// false when no live event is due by t.
func (s *Simulator) step(t Time) bool {
	e := s.pop(t)
	if e == nil {
		return false
	}
	s.now = e.at
	s.processed++
	s.live--
	if s.obs != nil {
		s.obs.OnEvent(e.at, e.seq)
	}
	act := e.act
	s.recycle(e)
	act.RunAction()
	return true
}

// syncTotal adds newly delivered events to the CountInto counter.
func (s *Simulator) syncTotal() {
	if d := s.processed - s.synced; d != 0 {
		if s.counter != nil {
			s.counter.Add(d)
		}
		s.synced = s.processed
	}
}

// Run delivers events until none remain.
func (s *Simulator) Run() {
	for s.step(math.MaxInt64) {
	}
	s.syncTotal()
}

// RunUntil delivers events with timestamps <= t, then advances the clock to
// t. Events scheduled beyond t remain pending.
func (s *Simulator) RunUntil(t Time) {
	for s.step(t) {
	}
	if s.now < t {
		s.now = t
	}
	s.syncTotal()
}

// RunFor advances the simulation by d.
func (s *Simulator) RunFor(d time.Duration) { s.RunUntil(s.now.Add(d)) }

// Pending reports the number of live scheduled events.
func (s *Simulator) Pending() int { return s.live }
