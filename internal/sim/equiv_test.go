package sim

// Scheduler order suite: the timing wheel must deliver any schedule in the
// identical (time, seq) order as the reference heap loop (heapref_test.go).
// Each test here drives the same deterministic workload through both and
// compares the full delivery stream, plus targeted edge cases at slot
// boundaries, granule/epoch cascades, cancellations and mid-slot RunUntil
// bounds, a dense case that fills the wheel's 1 ns FIFOs, and a
// differential fuzzer over schedule/stop/RunUntil scripts.
// internal/testkit's golden sweep hashes pin full protocol runs.

import (
	"fmt"
	"math/bits"
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
func runWorkload(s sched, ops int) []recEvt {
	rec := &recorder{}
	s.SetObserver(rec)
	rng := s.Rand()
	var timers []timer
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
		w := wheelSched{New(seed)}
		gotW := runWorkload(w, 3000)
		hp := newHeapRef(seed)
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
		if w.Now() != hp.Now() || w.Processed() != hp.Processed() {
			t.Fatalf("seed %d: final state differs: wheel(now=%v n=%d) heap(now=%v n=%d)",
				seed, w.Now(), w.Processed(), hp.Now(), hp.Processed())
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
func runDense(s sched) []recEvt {
	rec := &recorder{}
	s.SetObserver(rec)
	rng := s.Rand()
	const base = Time(5) << l0Shift
	var timers []timer
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
		gotW := runDense(wheelSched{New(seed)})
		gotH := runDense(newHeapRef(seed))
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
func runScript(s sched, script []byte) []recEvt {
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
	var timers []timer
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
// script must produce the same delivery stream on the wheel and the heap
// reference.
func FuzzWheelHeapOrder(f *testing.F) {
	f.Add([]byte("\x00\x00\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x07\x00\x00\x40\x00\x00\x00\x00\x00"))
	f.Add([]byte("the wheel and the heap must agree on any script of draws, long or short"))
	f.Add([]byte{3, 1, 2, 9, 0, 0, 255, 255, 255, 7, 7, 7, 5, 0, 0, 1, 0, 0, 6, 6, 6, 200, 100, 50, 4, 4, 4})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 1024 {
			t.Skip("scripts past 512 ops add run time, not coverage")
		}
		gotW := runScript(wheelSched{New(1)}, script)
		gotH := runScript(newHeapRef(1), script)
		diffStreams(t, "script", gotW, gotH)
	})
}

// bothSchedulers runs f against the wheel and the heap reference and
// compares the delivery streams.
func bothSchedulers(t *testing.T, f func(s sched)) {
	t.Helper()
	run := func(s sched) []recEvt {
		rec := &recorder{}
		s.SetObserver(rec)
		f(s)
		return rec.recs
	}
	w, h := run(wheelSched{New(1)}), run(newHeapRef(1))
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
	bothSchedulers(t, func(s sched) {
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
	bothSchedulers(t, func(s sched) {
		fired := map[Time]bool{}
		mk := func(at Time) timer {
			return s.At(at, func() { fired[at] = true })
		}
		// The ns level: by the time the event at 90 runs, its slot has been
		// scattered, so the timers it stops sit in FIFOs — one behind it in
		// its own FIFO, one alone in a later FIFO, one sharing a FIFO with a
		// survivor.
		var killSame, killNs, killTie timer
		s.At(90, func() {
			for _, tm := range []timer{killSame, killNs, killTie} {
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
		for _, tm := range []timer{killSlot, killL0, killL1, killFar} {
			if !tm.Stop() {
				t.Fatal("Stop on pending timer reported false")
			}
		}
		if got := s.Pending(); got != 9 {
			t.Fatalf("Pending after cancels = %d, want 9", got)
		}
		s.Run()
		for _, tm := range []timer{keepTie, keepSlot, keepL0, keepL1, keepFar} {
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
		if w, ok := s.(wheelSched); ok && len(w.wheel.early) != 3 {
			t.Fatalf("early heap holds %d events, want 3: the drained all-cancelled slot no longer leaves the ns level ahead", len(w.wheel.early))
		}
		if !killEarly.Stop() {
			t.Fatal("Stop on pending timer reported false")
		}
		s.Run()
		if keepEarly.Pending() || keepLate.Pending() || !fired[now+3] || fired[now+2] || !fired[now+1<<l0Shift+1] {
			t.Fatalf("early-heap timers: fired = %v", fired)
		}
		// Slots of exactly one chunk and of one chunk + 1, at both levels,
		// every event cancelled, drained once by Run alone (the scatter
		// and the cascade meet them) and once through a RunUntil bound
		// (peek clears them). Each last chunk is full or holds one event.
		// They are scheduled from the first instant of a fresh epoch, where
		// the wheel is anchored, so each group lands in the level it is
		// meant for. A kept timer past them proves the wheel moves on, and
		// afterwards no chunk is left in a slot.
		for _, bounded := range []bool{false, true} {
			e0 := (s.Now()>>l2Shift + 1) << l2Shift
			last := e0 + 6<<l1Shift
			s.At(e0, func() {
				for i, at := range []Time{e0 + 3<<l0Shift, e0 + 5<<l0Shift, e0 + 3<<l1Shift, e0 + 5<<l1Shift} {
					for j := 0; j < chunkLen+i%2; j++ {
						s.At(at+Time(j%7), func() { t.Error("cancelled timer in a full chunk fired") }).Stop()
					}
				}
				mk(last)
			})
			if bounded {
				s.RunUntil(e0 + 4<<l1Shift)
			}
			s.Run()
			if !fired[last] {
				t.Fatalf("timer behind four cancelled slots did not fire (bounded=%v): fired = %v", bounded, fired)
			}
		}
		if w, ok := s.(wheelSched); ok {
			if inUse, _ := w.wheel.chunks(); inUse != 0 {
				t.Fatalf("%d chunks still linked to slots after the wheel drained", inUse)
			}
		}
	})
}

// chunks counts the chunks linked to the wheel's slots and those on its
// free list; together they are every chunk the wheel has allocated.
func (w *wheelState) chunks() (inUse, spare int) {
	for _, level := range [][]slot{w.l0[:], w.l1[:]} {
		for i := range level {
			for c := level[i].head; c != nil; c = c.next {
				inUse++
			}
		}
	}
	for c := w.spare; c != nil; c = c.next {
		spare++
	}
	return inUse, spare
}

// peakObserver samples the wheel's level-0/level-1 population after every
// delivered event.
type peakObserver struct {
	w              *wheelState
	pending, slots int
}

func (o *peakObserver) OnEvent(Time, uint64) { o.sample() }

func (o *peakObserver) sample() {
	o.pending = max(o.pending, o.w.l0Count+o.w.l1Count)
	slots := 0
	for _, b := range o.w.l0bits {
		slots += bits.OnesCount64(b)
	}
	for _, b := range o.w.l1bits {
		slots += bits.OnesCount64(b)
	}
	o.slots = max(o.slots, slots)
}

// TestWheelChunksTrackPending bursts into every level-0 and level-1 slot
// of an epoch — a quarter of them per round, 2 chunks + 1 event each, the
// next quarter the round after — and drains between rounds. Per-slot
// arrays would end up holding every slot's largest burst; the chunks the
// wheel retains must instead stay within what the peak population needs:
// ⌈peak pending / chunkLen⌉ full chunks plus one partial chunk per
// occupied slot.
func TestWheelChunksTrackPending(t *testing.T) {
	s := New(1)
	obs := &peakObserver{w: &s.wheel}
	s.SetObserver(obs)
	const burst = 2*chunkLen + 1
	noop := func() {}
	touched := make([]int, l0Slots+l1Slots) // largest burst per slot
	for round := 0; round < 8; round++ {
		t0 := Time(round+1) << l2Shift
		hot := func(k int) bool { return k%4 == round%4 }
		// Bursting from an event at the epoch's first instant places
		// every event straight into its slot: the wheel is anchored on
		// this epoch and granule.
		s.At(t0, func() {
			for k := 0; k < l0Slots; k++ {
				if hot(k) {
					for j := 0; j < burst; j++ {
						s.At(t0+Time(k)<<l0Shift+Time(j%nsSlots), noop)
					}
					touched[k] = burst
				}
			}
			for m := 1; m < l1Slots; m++ {
				if hot(m) {
					for j := 0; j < burst; j++ {
						s.At(t0+Time(m)<<l1Shift+Time(j*997), noop)
					}
					touched[l0Slots+m] = burst
				}
			}
			obs.sample()
		})
		s.Run()
	}
	inUse, spare := s.wheel.chunks()
	if inUse != 0 {
		t.Fatalf("%d chunks still linked to slots after the wheel drained", inUse)
	}
	full := (obs.pending + chunkLen - 1) / chunkLen
	if spare < full {
		t.Fatalf("free list holds %d chunks, fewer than the %d the peak filled", spare, full)
	}
	if bound := full + obs.slots; spare > bound {
		t.Fatalf("wheel retains %d chunks; peak of %d pending in %d slots needs at most %d",
			spare, obs.pending, obs.slots, bound)
	}
	perSlot := 0
	for _, n := range touched {
		perSlot += (n + chunkLen - 1) / chunkLen
	}
	if spare*2 > perSlot {
		t.Fatalf("wheel retains %d chunks, not well under the %d that every slot's largest burst would hold", spare, perSlot)
	}
}

func TestRescheduleAcrossRegions(t *testing.T) {
	bothSchedulers(t, func(s sched) {
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
	bothSchedulers(t, func(s sched) {
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
	bothSchedulers(t, func(s sched) {
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
	bothSchedulers(t, func(s sched) {
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
	bothSchedulers(t, func(s sched) {
		var fired int
		var cancelled []timer
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
	s := New(1)
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
