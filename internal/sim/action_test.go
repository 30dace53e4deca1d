package sim

import (
	"testing"
	"time"
)

// recordAction implements Action by appending its tag to a shared log.
type recordAction struct {
	log *[]int
	tag int
}

func (a *recordAction) RunAction() { *a.log = append(*a.log, a.tag) }

// TestAtActionInterleavesWithAt checks that typed actions and closures
// scheduled at the same instant share one FIFO: seq order is assigned at
// scheduling time regardless of which API armed the event.
func TestAtActionInterleavesWithAt(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		if i%2 == 0 {
			s.AtAction(5, &recordAction{log: &got, tag: i})
		} else {
			s.At(5, func() { got = append(got, i) })
		}
	}
	s.Run()
	if len(got) != 100 {
		t.Fatalf("delivered %d events, want 100", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("mixed At/AtAction events reordered: got[%d] = %d", i, v)
		}
	}
}

// TestAtActionTimerStop checks Timer semantics carry over to action
// events: a stopped action never runs, and generation checks survive the
// event's recycling.
func TestAtActionTimerStop(t *testing.T) {
	s := New(1)
	var got []int
	tm := s.AtAction(10, &recordAction{log: &got, tag: 1})
	if !tm.Pending() {
		t.Fatal("action timer should be pending")
	}
	if !tm.Stop() {
		t.Fatal("Stop should report true on a pending action timer")
	}
	s.AtAction(20, &recordAction{log: &got, tag: 2})
	s.Run()
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("log = %v, want [2] (stopped action must not run)", got)
	}
	if tm.Stop() {
		t.Fatal("second Stop should report false")
	}
}

// TestWheelRunAfterCancelledCascade is a regression test for a wheel
// re-anchoring bug: draining a level-1 slot that held only cancelled
// timers used to advance the wheel's granule anchor past times the clock
// never reached, so a later Run() with fresh events in the skipped range
// panicked (events hashed to level-1 slots behind the scan point). The
// pattern needs multiple Run() calls on one simulator — schedule far,
// cancel, drain, schedule near, drain — which is exactly how the example
// programs drive it.
func TestWheelRunAfterCancelledCascade(t *testing.T) {
	s := New(1)
	fired := 0
	s.At(5, func() { fired++ })
	// Far enough out to land in level 1 (beyond the current 131 µs
	// level-0 granule), then cancelled so the drain cascades a dead-only
	// slot.
	tm := s.At(400_000, func() { t.Fatal("cancelled timer fired") })
	tm.Stop()
	s.Run()
	if fired != 1 {
		t.Fatalf("first run delivered %d events, want 1", fired)
	}
	// Pre-fix this insert landed behind the level-1 scan point and the
	// next Run() panicked with an index out of range.
	s.At(s.Now().Add(time.Microsecond), func() { fired++ })
	s.Run()
	if fired != 2 {
		t.Fatalf("second run delivered %d events, want 2", fired)
	}
	// A third phase crossing into level 1 again must still order
	// correctly against the heap oracle's semantics.
	var order []int
	s.At(s.Now().Add(200*time.Microsecond), func() { order = append(order, 2) })
	s.At(s.Now().Add(time.Microsecond), func() { order = append(order, 1) })
	s.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("third run order = %v, want [1 2]", order)
	}
}

// TestAtActionZeroAlloc asserts scheduling and dispatching a
// pointer-backed action allocates nothing in steady state — the property
// netsim's frame arrival and port departure actions rely on.
func TestAtActionZeroAlloc(t *testing.T) {
	s := New(1)
	var sink []int
	act := &recordAction{log: &sink, tag: 0}
	op := func() {
		s.AtAction(s.Now(), act)
		s.Run()
		sink = sink[:0]
	}
	for i := 0; i < 512; i++ {
		op()
	}
	if a := testing.AllocsPerRun(1000, op); a != 0 {
		t.Fatalf("AtAction dispatch: %.2f allocs/op, want 0", a)
	}
}
