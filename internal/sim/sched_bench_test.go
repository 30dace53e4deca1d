package sim

// Scheduler microbenchmarks: schedule/cancel/fire mixes on the timing
// wheel at 1k-1M pending timers and at fabric_scale's slot density.
// DESIGN.md §8 and EXPERIMENTS.md's PR2 appendix record them against the
// heap the simulator once offered as an alternative; `make bench` runs
// them.
//
// The steady-state mix models the simulator's real load (measured from
// falconbench): ~90% of timers land within ~100us (packet serialization,
// ACK coalescing, pacing) and ~10% reach into the milliseconds (RTOs,
// probe timers), so the wheel's level-0/level-1 split and the far-heap
// cascade are all on the hot path. It leaves a level-0 slot almost empty;
// the dense mix below fills it the way the bench/ workloads do.

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// delayRing precomputes a deterministic delay mixture so the benchmark
// loop does no RNG work.
func delayRing(shortFrac int) []time.Duration {
	rng := rand.New(rand.NewSource(42))
	ring := make([]time.Duration, 8192)
	for i := range ring {
		if rng.Intn(100) < shortFrac {
			ring[i] = time.Duration(1 + rng.Intn(100_000)) // <= 100us
		} else {
			ring[i] = time.Duration(1 + rng.Intn(10_000_000)) // <= 10ms
		}
	}
	return ring
}

// densePending and denseRing shape the scheduler's load like the traffic
// counted on the bench/ workloads (parent of PR 18, seed 1, -seconds 8,
// whole process; EXPERIMENTS.md "Appendix: PR18"):
//
//	workload      events per drained slot   schedules into the draining slot
//	fabric_scale                     1974                               26 %
//	oprate_small                      131                               33 %
//	lossy_mixed                        54                               25 %
//	incast_conns                       12                               21 %
//
// This is fabric_scale: 21 K pending, 27 % of reschedules less than one
// 128 ns slot ahead and the rest at unsorted offsets up to 2.2 us, a mean
// delay of 875 ns and therefore 21 K / 875 ns = 24 events per simulated
// nanosecond: ~3000 per slot, of which ~2200 are there when it is drained.
const densePending = 21_000

func denseRing() []time.Duration {
	rng := rand.New(rand.NewSource(42))
	ring := make([]time.Duration, 8192)
	for i := range ring {
		if rng.Intn(100) < 27 {
			ring[i] = time.Duration(rng.Intn(1 << l0Shift))
		} else {
			ring[i] = time.Duration(1<<l0Shift + rng.Intn(2094))
		}
	}
	return ring
}

// benchSteadyFire keeps `pending` self-rescheduling timers live, their
// delays drawn from ring, and measures the cost of one schedule+fire cycle.
func benchSteadyFire(b *testing.B, pending int, ring []time.Duration) {
	s := newLoop(1)
	di := 0
	next := func() time.Duration {
		d := ring[di]
		di++
		if di == len(ring) {
			di = 0
		}
		return d
	}
	var tick func()
	tick = func() { s.After(next(), tick) }
	for i := 0; i < pending; i++ {
		s.After(next(), tick)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.step()
	}
}

// benchCancelMix measures a schedule-2/cancel-1/fire-1 cycle, the pattern
// retransmission timers follow (armed per packet, almost always cancelled
// by the ACK before firing).
func benchCancelMix(b *testing.B, pending int) {
	s := newLoop(1)
	ring := delayRing(90)
	di := 0
	next := func() time.Duration {
		d := ring[di]
		di++
		if di == len(ring) {
			di = 0
		}
		return d
	}
	noop := func() {}
	timers := make([]Timer, pending)
	for i := range timers {
		timers[i] = s.After(next(), noop)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % pending
		timers[j].Stop()
		s.After(next(), noop)
		timers[j] = s.After(next(), noop)
		s.step()
	}
}

func schedulerSizes() []int { return []int{1_000, 32_000, 1_000_000} }

func BenchmarkSchedulerSteadyState(b *testing.B) {
	for _, n := range schedulerSizes() {
		b.Run(fmt.Sprintf("pending=%d", n), func(b *testing.B) {
			benchSteadyFire(b, n, delayRing(90))
		})
	}
}

func BenchmarkSchedulerDense(b *testing.B) {
	benchSteadyFire(b, densePending, denseRing())
}

// TestWheelDenseZeroAlloc gates the dense regime: once the FIFOs, slots and
// free list have reached their high-water marks a schedule+fire cycle
// allocates nothing, an emptied FIFO keeps its capacity and holds no stale
// event pointer, and the same goes for the early heap.
func TestWheelDenseZeroAlloc(t *testing.T) {
	s := newLoop(1)
	ring, di, stop := denseRing(), 0, false
	var tick func()
	tick = func() {
		if !stop {
			s.After(ring[di%len(ring)], tick)
			di++
		}
	}
	for i := 0; i < densePending; i++ {
		tick()
	}
	for i := 0; i < 20*len(ring); i++ {
		s.step()
	}
	if avg := testing.AllocsPerRun(50_000, func() { s.step() }); avg != 0 {
		t.Fatalf("dense schedule+fire: %v allocs/op, want 0", avg)
	}
	// early is reached once a drained slot held nothing but a cancelled
	// timer: the ns level is then ahead of the clock.
	noop := func() {}
	early := func() {
		s.After(10<<l0Shift, noop).Stop()
		s.Run()
		s.After(2, noop)
		s.After(1, noop)
		if len(s.wheel.early) != 2 {
			t.Fatalf("early holds %d events, want 2", len(s.wheel.early))
		}
		s.Run()
	}
	stop = true
	s.Run()
	early()
	if avg := testing.AllocsPerRun(100, early); avg != 0 {
		t.Fatalf("early heap cycle: %v allocs/op, want 0", avg)
	}
	w := &s.wheel
	used := 0
	for i := range w.ns {
		if cap(w.ns[i].q) > 0 {
			used++
		}
	}
	if used != nsSlots || cap(w.early) == 0 {
		t.Fatalf("%d of %d FIFOs kept their capacity (early heap: %d)", used, nsSlots, cap(w.early))
	}
	for _, f := range append(w.ns[:], fifo{q: w.early}) {
		if len(f.q) != 0 || f.head != 0 {
			t.Fatalf("drained queue left at len %d, head %d", len(f.q), f.head)
		}
		for _, e := range f.q[:cap(f.q)] {
			if e != nil {
				t.Fatal("popped entry not nilled")
			}
		}
	}
	if w.nsbits != [len(w.nsbits)]uint64{} {
		t.Fatalf("occupancy bits %x left set on an empty ns level", w.nsbits)
	}
}

func BenchmarkSchedulerCancelMix(b *testing.B) {
	for _, n := range schedulerSizes() {
		b.Run(fmt.Sprintf("pending=%d", n), func(b *testing.B) {
			benchCancelMix(b, n)
		})
	}
}
