package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"time"
)

// The reference the timing wheel is held to: every pending event in one
// binary heap over (time, seq), cancelled events dropped as they surface.
// The order suite (equiv_test.go) drives both through sched and compares
// the delivered (time, seq) streams.

// sched is the slice of the Simulator API the order suite uses.
type sched interface {
	At(at Time, fn func()) timer
	After(d time.Duration, fn func()) timer
	RunUntil(t Time)
	Run()
	Now() Time
	Pending() int
	Processed() uint64
	Rand() *rand.Rand
	SetObserver(o Observer)
}

// timer is the slice of Timer the order suite uses.
type timer interface {
	Stop() bool
	Pending() bool
}

// wheelSched adapts *Simulator to sched (At and After return an
// interface).
type wheelSched struct{ *Simulator }

func (w wheelSched) At(at Time, fn func()) timer { return w.Simulator.At(at, fn) }

func (w wheelSched) After(d time.Duration, fn func()) timer { return w.Simulator.After(d, fn) }

// heapRef is the reference loop. Its events are never recycled, so a
// fired event stays dead and a stale handle can never reach a new one.
type heapRef struct {
	now       Time
	seq       uint64
	rng       *rand.Rand
	obs       Observer
	pending   eventHeap
	processed uint64
}

func newHeapRef(seed int64) *heapRef { return &heapRef{rng: rand.New(rand.NewSource(seed))} }

type refTimer struct{ e *event }

func (t refTimer) Stop() bool {
	stopped := !t.e.dead
	t.e.dead = true
	return stopped
}

func (t refTimer) Pending() bool { return !t.e.dead }

func (r *heapRef) At(at Time, fn func()) timer {
	if at < r.now {
		panic(fmt.Sprintf("heapRef: scheduling event at %v before now %v", at, r.now))
	}
	e := &event{at: at, seq: r.seq, act: funcAction(fn)}
	r.seq++
	heap.Push(&r.pending, e)
	return refTimer{e}
}

func (r *heapRef) After(d time.Duration, fn func()) timer {
	if d < 0 {
		d = 0
	}
	return r.At(r.now.Add(d), fn)
}

// next drops cancelled events off the top and returns the first live one,
// or nil.
func (r *heapRef) next() *event {
	for len(r.pending) > 0 && r.pending[0].dead {
		heap.Pop(&r.pending)
	}
	if len(r.pending) == 0 {
		return nil
	}
	return r.pending[0]
}

// fire delivers the top event, which next has just found live.
func (r *heapRef) fire() {
	e := heap.Pop(&r.pending).(*event)
	e.dead = true
	r.now = e.at
	r.processed++
	if r.obs != nil {
		r.obs.OnEvent(e.at, e.seq)
	}
	e.act.RunAction()
}

func (r *heapRef) RunUntil(t Time) {
	for e := r.next(); e != nil && e.at <= t; e = r.next() {
		r.fire()
	}
	if r.now < t {
		r.now = t
	}
}

func (r *heapRef) Run() {
	for r.next() != nil {
		r.fire()
	}
}

// Pending counts the live events; cancelled ones wait in the heap.
func (r *heapRef) Pending() int {
	n := 0
	for _, e := range r.pending {
		if !e.dead {
			n++
		}
	}
	return n
}

func (r *heapRef) Now() Time              { return r.now }
func (r *heapRef) Processed() uint64      { return r.processed }
func (r *heapRef) Rand() *rand.Rand       { return r.rng }
func (r *heapRef) SetObserver(o Observer) { r.obs = o }
