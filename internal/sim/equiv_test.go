package sim

// Scheduler equivalence suite: SchedulerWheel and SchedulerHeap must
// deliver any schedule in the identical (time, seq) order. Each test here
// drives the same deterministic workload through both implementations and
// compares the full delivery stream, plus targeted edge cases at slot
// boundaries, granule/epoch cascades, cancellations and mid-slot RunUntil
// bounds, a dense case that fills the wheel's 1 ns FIFOs, and a
// differential fuzzer over schedule/stop/RunUntil scripts.
// internal/testkit's sweep tests extend the same check to full protocol
// runs via trace hashes.

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

// recEvt is one delivered event as seen by the observer hook.
type recEvt struct {
	at  Time
	seq uint64
}

type recorder struct{ recs []recEvt }

func (r *recorder) OnEvent(at Time, seq uint64) { r.recs = append(r.recs, recEvt{at, seq}) }

// randomDelay draws from a mixture covering every scheduler region: the
// current slot, exact slot/granule/epoch boundaries, level-0/level-1 spans
// and the far heap.
func randomDelay(intn func(int) int) time.Duration {
	switch intn(10) {
	case 0:
		return 0
	case 1:
		return time.Duration(intn(1 << l0Shift)) // inside one slot
	case 2:
		return time.Duration(1 << (l0Shift + uint(intn(4)))) // slot boundaries
	case 3:
		return time.Duration(intn(1 << l1Shift)) // level-0 span
	case 4:
		return 1 << l1Shift // exact granule boundary
	case 5:
		return time.Duration(1<<l1Shift + intn(1<<(l1Shift+3))) // level-1 span
	case 6:
		return 1 << l2Shift // exact epoch boundary
	case 7:
		return time.Duration(1<<l2Shift + intn(1<<l2Shift)) // far heap
	default:
		return time.Duration(intn(4096))
	}
}

// runWorkload drives a self-expanding random schedule with cancels and
// reschedules on s, returning the delivery stream. All randomness flows
// from s.Rand(), so two simulators with the same seed see the same
// workload exactly when they deliver events in the same order.
func runWorkload(s *Simulator, ops int) []recEvt {
	rec := &recorder{}
	s.SetObserver(rec)
	rng := s.Rand()
	var timers []Timer
	spawned := 0
	var spawn func()
	spawn = func() {
		for i, k := 0, rng.Intn(3); i < k && spawned < ops; i++ {
			spawned++
			timers = append(timers, s.After(randomDelay(rng.Intn), spawn))
		}
		if len(timers) > 0 && rng.Intn(4) == 0 {
			timers[rng.Intn(len(timers))].Stop()
		}
		if len(timers) > 0 && rng.Intn(8) == 0 {
			// Reschedule: cancel one and re-arm at a region boundary.
			i := rng.Intn(len(timers))
			if timers[i].Stop() {
				timers[i] = s.After(randomDelay(rng.Intn), spawn)
			}
		}
	}
	for i := 0; i < 8; i++ {
		spawned++
		timers = append(timers, s.After(time.Duration(i)*97, spawn))
	}
	// Alternate bounded and unbounded draining so RunUntil's mid-slot
	// peek path is exercised alongside Run's pop-only path.
	for t := Time(77_777); s.Pending() > 0 && t < Time(1)<<30; t = t*2 + 13 {
		s.RunUntil(t)
	}
	s.Run()
	return rec.recs
}

func TestWheelHeapEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		wheel := NewWithScheduler(seed, SchedulerWheel)
		gotW := runWorkload(wheel, 3000)
		hp := NewWithScheduler(seed, SchedulerHeap)
		gotH := runWorkload(hp, 3000)
		if len(gotW) == 0 {
			t.Fatalf("seed %d: workload delivered no events", seed)
		}
		if !reflect.DeepEqual(gotW, gotH) {
			n := len(gotW)
			if len(gotH) < n {
				n = len(gotH)
			}
			for i := 0; i < n; i++ {
				if gotW[i] != gotH[i] {
					t.Fatalf("seed %d: delivery diverges at %d: wheel=%+v heap=%+v",
						seed, i, gotW[i], gotH[i])
				}
			}
			t.Fatalf("seed %d: stream lengths differ: wheel=%d heap=%d", seed, len(gotW), len(gotH))
		}
		if wheel.Now() != hp.Now() || wheel.Processed() != hp.Processed() {
			t.Fatalf("seed %d: final state differs: wheel(now=%v n=%d) heap(now=%v n=%d)",
				seed, wheel.Now(), wheel.Processed(), hp.Now(), hp.Processed())
		}
	}
}

// diffStreams fails the test at the first event where the wheel's and the
// heap's delivery streams part.
func diffStreams(t *testing.T, what string, gotW, gotH []recEvt) {
	t.Helper()
	for i := 0; i < len(gotW) && i < len(gotH); i++ {
		if gotW[i] != gotH[i] {
			t.Fatalf("%s: delivery diverges at %d: wheel=%+v heap=%+v", what, i, gotW[i], gotH[i])
		}
	}
	if len(gotW) != len(gotH) {
		t.Fatalf("%s: stream lengths differ: wheel=%d heap=%d", what, len(gotW), len(gotH))
	}
}

// runDense packs two adjacent level-0 slots with 4000 events (~16 per
// nanosecond, so every FIFO of the ns level holds same-instant ties) and
// drains them the way a busy fabric does: callbacks reschedule 0-127 ns
// ahead — into the slot being drained, or just past its end — and stop
// timers that sit in a FIFO, while the driver steps RunUntil through the
// slots a few nanoseconds at a time and, stopped mid-slot, schedules
// events that land before the next pending one. runWorkload's few events
// per slot reach none of this.
func runDense(s *Simulator) []recEvt {
	rec := &recorder{}
	s.SetObserver(rec)
	rng := s.Rand()
	const base = Time(5) << l0Shift
	var timers []Timer
	budget := 4000
	var fire func()
	fire = func() {
		if budget > 0 && rng.Intn(2) == 0 {
			budget--
			timers = append(timers, s.After(time.Duration(rng.Intn(1<<l0Shift)), fire))
		}
		if rng.Intn(3) == 0 {
			timers[rng.Intn(len(timers))].Stop()
		}
	}
	for i := 0; i < 4000; i++ {
		timers = append(timers, s.At(base+Time(rng.Intn(2<<l0Shift)), fire))
	}
	for t := base + 3; s.Pending() > 0 && t < base+(4<<l0Shift); t += Time(1 + rng.Intn(9)) {
		s.RunUntil(t)
		for i := rng.Intn(3); i > 0; i-- {
			timers = append(timers, s.After(time.Duration(rng.Intn(4)), fire))
		}
	}
	s.Run()
	return rec.recs
}

func TestWheelHeapEquivalenceDense(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		gotW := runDense(NewWithScheduler(seed, SchedulerWheel))
		gotH := runDense(NewWithScheduler(seed, SchedulerHeap))
		if len(gotW) < 4000 {
			t.Fatalf("seed %d: dense workload delivered only %d events", seed, len(gotW))
		}
		diffStreams(t, fmt.Sprintf("seed %d", seed), gotW, gotH)
	}
}

// runScript is runWorkload with the fuzzer holding the dice: every draw
// (which operation, which delay class of randomDelay, which timer to stop)
// comes from the script, three bytes at a time, and reads 0 once it runs
// out. The driver schedules, stops and steps RunUntil; every fired event
// may reschedule a child up to three deep and stop a timer, so the drain
// itself schedules and cancels.
func runScript(s *Simulator, script []byte) []recEvt {
	rec := &recorder{}
	s.SetObserver(rec)
	intn := func(n int) int {
		if len(script) < 3 {
			return 0
		}
		v := int(script[0]) | int(script[1])<<8 | int(script[2])<<16
		script = script[3:]
		return v % n
	}
	var timers []Timer
	var fire func(depth int) func()
	fire = func(depth int) func() {
		return func() {
			if depth < 3 && intn(2) == 0 {
				timers = append(timers, s.After(randomDelay(intn), fire(depth+1)))
			}
			if intn(4) == 0 {
				timers[intn(len(timers))].Stop()
			}
		}
	}
	for len(script) >= 3 {
		switch op := intn(8); {
		case op < 5 || len(timers) == 0:
			timers = append(timers, s.After(randomDelay(intn), fire(0)))
		case op < 7:
			timers[intn(len(timers))].Stop()
		default:
			s.RunUntil(s.Now().Add(randomDelay(intn)))
		}
	}
	s.Run()
	return rec.recs
}

// FuzzWheelHeapOrder is the differential fuzzer behind the suite: any
// script must produce the same delivery stream on both schedulers.
func FuzzWheelHeapOrder(f *testing.F) {
	f.Add([]byte("\x00\x00\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x07\x00\x00\x40\x00\x00\x00\x00\x00"))
	f.Add([]byte("the wheel and the heap must agree on any script of draws, long or short"))
	f.Add([]byte{3, 1, 2, 9, 0, 0, 255, 255, 255, 7, 7, 7, 5, 0, 0, 1, 0, 0, 6, 6, 6, 200, 100, 50, 4, 4, 4})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 1024 {
			t.Skip("scripts past 512 ops add run time, not coverage")
		}
		gotW := runScript(NewWithScheduler(1, SchedulerWheel), script)
		gotH := runScript(NewWithScheduler(1, SchedulerHeap), script)
		diffStreams(t, "script", gotW, gotH)
	})
}

// bothSchedulers runs f against a wheel and a heap simulator and compares
// the delivery streams.
func bothSchedulers(t *testing.T, f func(s *Simulator)) {
	t.Helper()
	run := func(k Scheduler) []recEvt {
		s := NewWithScheduler(1, k)
		rec := &recorder{}
		s.SetObserver(rec)
		f(s)
		return rec.recs
	}
	w, h := run(SchedulerWheel), run(SchedulerHeap)
	if !reflect.DeepEqual(w, h) {
		t.Fatalf("wheel and heap delivery differ:\nwheel: %+v\nheap:  %+v", w, h)
	}
}

func TestBoundaryTimesFireInOrder(t *testing.T) {
	// Events pinned to the exact edges of every wheel region, plus
	// duplicates at equal instants to check FIFO tie-breaking.
	ats := []Time{
		0, 1, (1 << l0Shift) - 1, 1 << l0Shift, (1 << l0Shift) + 1,
		(1 << l1Shift) - 1, 1 << l1Shift, (1 << l1Shift) + 1,
		(1 << l2Shift) - 1, 1 << l2Shift, (1 << l2Shift) + 1,
		3 << l2Shift, 1 << l0Shift, 1 << l1Shift, 1 << l2Shift,
	}
	bothSchedulers(t, func(s *Simulator) {
		var fired []Time
		for _, at := range ats {
			at := at
			s.At(at, func() {
				if s.Now() != at {
					t.Errorf("event for %v fired at %v", at, s.Now())
				}
				fired = append(fired, at)
			})
		}
		s.Run()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				t.Fatalf("delivery went backwards: %v", fired)
			}
		}
		if len(fired) != len(ats) {
			t.Fatalf("fired %d of %d events", len(fired), len(ats))
		}
	})
}

func TestCancelInEveryRegion(t *testing.T) {
	bothSchedulers(t, func(s *Simulator) {
		fired := map[Time]bool{}
		mk := func(at Time) Timer {
			return s.At(at, func() { fired[at] = true })
		}
		// The ns level: by the time the event at 90 runs, its slot has been
		// scattered, so the timers it stops sit in FIFOs — one behind it in
		// its own FIFO, one alone in a later FIFO, one sharing a FIFO with a
		// survivor.
		var killSame, killNs, killTie Timer
		s.At(90, func() {
			for _, tm := range []Timer{killSame, killNs, killTie} {
				if !tm.Stop() {
					t.Error("Stop on a timer queued in a FIFO reported false")
				}
			}
		})
		killSame, killNs = s.At(90, func() { fired[90] = true }), mk(95)
		keepTie := s.At(97, func() { fired[-97] = true })
		killTie = mk(97)
		keepSlot, killSlot := mk(100), mk(101)
		keepL0, killL0 := mk(1<<l0Shift+5), mk(1<<l0Shift+6)
		keepL1, killL1 := mk(1<<l1Shift+5), mk(1<<l1Shift+6)
		keepFar, killFar := mk(1<<l2Shift+5), mk(1<<l2Shift+6)
		for _, tm := range []Timer{killSlot, killL0, killL1, killFar} {
			if !tm.Stop() {
				t.Fatal("Stop on pending timer reported false")
			}
		}
		if got := s.Pending(); got != 9 {
			t.Fatalf("Pending after cancels = %d, want 9", got)
		}
		s.Run()
		for _, tm := range []Timer{keepTie, keepSlot, keepL0, keepL1, keepFar} {
			if tm.Pending() {
				t.Fatal("fired timer still pending")
			}
		}
		if len(fired) != 5 {
			t.Fatalf("fired = %v, want the 5 kept timers", fired)
		}
		for at := range fired {
			if at == 90 || at == 95 || at == 97 || at == 101 || at == 1<<l0Shift+6 || at == 1<<l1Shift+6 || at == 1<<l2Shift+6 {
				t.Fatalf("cancelled timer at %v fired", at)
			}
		}
		// The early heap: draining a slot of nothing but a cancelled
		// timer leaves the wheel's ns level ahead of the clock, so the next
		// short timers land below it.
		s.After(10*(1<<l0Shift), func() {}).Stop()
		s.Run()
		now := s.Now()
		keepEarly, killEarly, keepLate := mk(now+3), mk(now+2), mk(now+1<<l0Shift+1)
		if !killEarly.Stop() {
			t.Fatal("Stop on pending timer reported false")
		}
		s.Run()
		if keepEarly.Pending() || keepLate.Pending() || !fired[now+3] || fired[now+2] || !fired[now+1<<l0Shift+1] {
			t.Fatalf("early-heap timers: fired = %v", fired)
		}
	})
}

func TestRescheduleAcrossRegions(t *testing.T) {
	bothSchedulers(t, func(s *Simulator) {
		var order []int
		// Timer armed far in the future, pulled back to near term.
		tm := s.At(1<<l2Shift+999, func() { order = append(order, 99) })
		tm.Stop()
		s.At(50, func() { order = append(order, 1) })
		s.At(1<<l0Shift, func() { order = append(order, 2) })
		// Re-arm inside a callback, exactly on the next granule edge.
		s.At(60, func() {
			s.At(1<<l1Shift, func() { order = append(order, 3) })
		})
		s.Run()
		want := []int{1, 2, 3}
		if !reflect.DeepEqual(order, want) {
			t.Fatalf("order = %v, want %v", order, want)
		}
	})
}

func TestZeroDelaySelfScheduleDuringDrain(t *testing.T) {
	// A callback scheduling at the current instant must run after every
	// already-pending event at that instant (FIFO by seq), even while the
	// wheel is mid-way through draining the slot's sorted buffer.
	bothSchedulers(t, func(s *Simulator) {
		var order []int
		s.At(100, func() {
			order = append(order, 0)
			s.After(0, func() { order = append(order, 3) })
		})
		s.At(100, func() { order = append(order, 1) })
		s.At(100, func() { order = append(order, 2) })
		s.Run()
		want := []int{0, 1, 2, 3}
		if !reflect.DeepEqual(order, want) {
			t.Fatalf("order = %v, want %v", order, want)
		}
	})
}

func TestRunUntilMidSlotThenEarlierInsert(t *testing.T) {
	// Stop the clock in the middle of a drained slot, then schedule an
	// event that lands before the slot's remaining events: it must merge
	// into the sorted buffer, not append behind it.
	bothSchedulers(t, func(s *Simulator) {
		var order []Time
		note := func() { order = append(order, s.Now()) }
		s.At(100, note)
		s.At(120, note)
		s.RunUntil(105)
		if s.Now() != 105 {
			t.Fatalf("Now = %v, want 105", s.Now())
		}
		s.At(110, note)
		s.Run()
		want := []Time{100, 110, 120}
		if !reflect.DeepEqual(order, want) {
			t.Fatalf("order = %v, want %v", order, want)
		}
	})
}

func TestRunUntilJumpThenShortTimers(t *testing.T) {
	// Advancing the clock far past the wheel's current granule and epoch
	// leaves stale wheel state; subsequent short timers must still fire in
	// order (the pop path re-derives the wheel position from the heap).
	bothSchedulers(t, func(s *Simulator) {
		s.RunUntil(5<<l2Shift + 12345)
		var order []Time
		note := func() { order = append(order, s.Now()) }
		s.After(10, note)
		s.After(1<<l0Shift, note)
		s.After(1<<l1Shift, note)
		s.After(1<<l2Shift, note)
		s.Run()
		if len(order) != 4 {
			t.Fatalf("fired %d of 4", len(order))
		}
		for i := 1; i < len(order); i++ {
			if order[i] < order[i-1] {
				t.Fatalf("delivery went backwards: %v", order)
			}
		}
	})
}

func TestCascadeAcrossManyEpochs(t *testing.T) {
	// Events sprinkled over several full level-1 revolutions force
	// repeated far-heap refills; interleave cancellations of far events.
	bothSchedulers(t, func(s *Simulator) {
		var fired int
		var cancelled []Timer
		for i := 0; i < 200; i++ {
			at := Time(i) * ((1 << l2Shift) / 16)
			tm := s.At(at, func() { fired++ })
			if i%5 == 0 {
				cancelled = append(cancelled, tm)
			}
		}
		for _, tm := range cancelled {
			tm.Stop()
		}
		s.Run()
		if want := 200 - len(cancelled); fired != want {
			t.Fatalf("fired = %d, want %d", fired, want)
		}
	})
}

func TestStopAfterRecycleIsInert(t *testing.T) {
	// A Timer whose event has fired and been recycled into a new event
	// must not cancel the new event (generation check).
	s := NewWithScheduler(1, SchedulerWheel)
	stale := s.After(0, func() {})
	s.Run()
	fired := false
	fresh := s.After(10, func() { fired = true })
	if stale.Stop() {
		t.Fatal("stale Stop reported true")
	}
	if !fresh.Pending() {
		t.Fatal("stale handle cancelled a recycled event")
	}
	s.Run()
	if !fired {
		t.Fatal("recycled event did not fire")
	}
}
