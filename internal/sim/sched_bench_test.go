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
	"math"
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

// steadySim returns a simulator holding `pending` self-rescheduling timers,
// their delays drawn from ring.
func steadySim(pending int, ring []time.Duration) *Simulator {
	s := New(1)
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
	return s
}

// benchSteadyFire measures the cost of one schedule+fire cycle on
// steadySim(pending, ring).
func benchSteadyFire(b *testing.B, pending int, ring []time.Duration) {
	s := steadySim(pending, ring)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.step(math.MaxInt64)
	}
}

// benchCancelMix measures a schedule-2/cancel-1/fire-1 cycle, the pattern
// retransmission timers follow (armed per packet, almost always cancelled
// by the ACK before firing).
func benchCancelMix(b *testing.B, pending int) {
	s := New(1)
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
		s.step(math.MaxInt64)
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

// BenchmarkSchedulerRunUntil is the dense cycle driven the way bench/ and
// the figures drive a simulator: a window of simulated time cut into 40
// RunUntil slices, each ending on a bound mid-slot. The window is sized
// from a warm-up to hold about b.N events; ns/op is per delivered event.
func BenchmarkSchedulerRunUntil(b *testing.B) {
	const slices = 40
	s := steadySim(densePending, denseRing())
	s.RunUntil(8_000)
	perNs := float64(s.Processed()) / float64(s.Now())
	window := max(Time(float64(b.N)/perNs), slices)
	b.ReportAllocs()
	b.ResetTimer()
	start, ev := s.Now(), s.Processed()
	for i := Time(1); i <= slices; i++ {
		s.RunUntil(start + window*i/slices)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(s.Processed()-ev), "ns/op")
}

// TestWheelDenseZeroAlloc gates the dense regime: once the FIFOs, slots and
// free list have reached their high-water marks a schedule+fire cycle
// allocates nothing, and an emptied FIFO keeps its capacity and holds no
// stale event pointer. Reclaiming a slot of nothing but a cancelled timer
// allocates nothing either and leaves the ns level where the clock is.
func TestWheelDenseZeroAlloc(t *testing.T) {
	s := New(1)
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
		s.step(math.MaxInt64)
	}
	if avg := testing.AllocsPerRun(50_000, func() { s.step(math.MaxInt64) }); avg != 0 {
		t.Fatalf("dense schedule+fire: %v allocs/op, want 0", avg)
	}
	noop := func() {}
	w := &s.wheel
	reclaim := func() {
		s.After(10<<l0Shift, noop).Stop()
		s.Run()
		if w.curEnd-nsSlots > s.Now() {
			t.Fatalf("a cancelled slot left the ns level at [%v, %v), ahead of Now() %v", w.curEnd-nsSlots, w.curEnd, s.Now())
		}
		s.After(2, noop)
		s.After(1, noop)
		s.Run()
	}
	stop = true
	s.Run()
	reclaim()
	if avg := testing.AllocsPerRun(100, reclaim); avg != 0 {
		t.Fatalf("cancelled-slot cycle: %v allocs/op, want 0", avg)
	}
	used := 0
	for i := range w.ns {
		if cap(w.ns[i].q) > 0 {
			used++
		}
	}
	if used != nsSlots {
		t.Fatalf("%d of %d FIFOs kept their capacity", used, nsSlots)
	}
	for _, f := range w.ns {
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
