package sim

import (
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestEventOrdering(t *testing.T) {
	s := New(1)
	var got []int
	s.At(30, func() { got = append(got, 3) })
	s.At(10, func() { got = append(got, 1) })
	s.At(20, func() { got = append(got, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 30 {
		t.Fatalf("Now() = %v, want 30", s.Now())
	}
}

func TestFIFOAtSameInstant(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		s.At(5, func() { got = append(got, i) })
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events reordered: got[%d] = %d", i, v)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	s := New(1)
	var at Time
	s.After(2*time.Microsecond, func() {
		s.After(3*time.Microsecond, func() { at = s.Now() })
	})
	s.Run()
	if want := Time(5000); at != want {
		t.Fatalf("fired at %v, want %v", at, want)
	}
}

func TestTimerStop(t *testing.T) {
	s := New(1)
	fired := false
	tm := s.After(time.Microsecond, func() { fired = true })
	if !tm.Pending() {
		t.Fatal("timer should be pending before firing")
	}
	if !tm.Stop() {
		t.Fatal("Stop should report true on a pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop should report false")
	}
	s.Run()
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestTimerStopAfterFire(t *testing.T) {
	s := New(1)
	tm := s.After(0, func() {})
	s.Run()
	if tm.Stop() {
		t.Fatal("Stop after firing should report false")
	}
	if tm.Pending() {
		t.Fatal("fired timer still pending")
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	s := New(1)
	count := 0
	s.At(100, func() { count++ })
	s.At(200, func() { count++ })
	s.RunUntil(150)
	if count != 1 {
		t.Fatalf("events delivered = %d, want 1", count)
	}
	if s.Now() != 150 {
		t.Fatalf("Now() = %v, want 150", s.Now())
	}
	s.Run()
	if count != 2 {
		t.Fatalf("events delivered = %d, want 2", count)
	}
}

func TestRunUntilBoundaryInclusive(t *testing.T) {
	s := New(1)
	fired := false
	s.At(100, func() { fired = true })
	s.RunUntil(100)
	if !fired {
		t.Fatal("event at the RunUntil boundary should fire")
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New(1)
	s.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past should panic")
			}
		}()
		s.At(50, func() {})
	})
	s.Run()
}

func TestNegativeAfterClampsToNow(t *testing.T) {
	s := New(1)
	s.At(10, func() {
		s.After(-time.Second, func() {
			if s.Now() != 10 {
				t.Errorf("negative After fired at %v, want 10", s.Now())
			}
		})
	})
	s.Run()
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []int64 {
		s := New(42)
		var trace []int64
		var tick func()
		tick = func() {
			trace = append(trace, int64(s.Now()))
			if len(trace) < 50 {
				s.After(time.Duration(s.Rand().Intn(1000)+1), tick)
			}
		}
		s.After(0, tick)
		s.Run()
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace[%d] = %d vs %d: runs are not deterministic", i, a[i], b[i])
		}
	}
}

func TestPendingCount(t *testing.T) {
	s := New(1)
	t1 := s.At(10, func() {})
	s.At(20, func() {})
	if got := s.Pending(); got != 2 {
		t.Fatalf("Pending = %d, want 2", got)
	}
	t1.Stop()
	if got := s.Pending(); got != 1 {
		t.Fatalf("Pending after Stop = %d, want 1", got)
	}
}

func TestTimeArithmetic(t *testing.T) {
	base := Time(1_000_000)
	if got := base.Add(time.Microsecond); got != 1_001_000 {
		t.Fatalf("Add = %v", got)
	}
	if got := base.Sub(Time(400_000)); got != 600*time.Microsecond {
		t.Fatalf("Sub = %v", got)
	}
	if got := Time(2_500_000_000).Seconds(); got != 2.5 {
		t.Fatalf("Seconds = %v", got)
	}
}

// Property: for any sequence of (delay, cancel) decisions, events fire in
// nondecreasing time order and cancelled events never fire.
func TestQuickOrderingInvariant(t *testing.T) {
	f := func(delays []uint16, cancelMask []bool) bool {
		s := New(7)
		var fireTimes []Time
		var timers []Timer
		for _, d := range delays {
			timers = append(timers, s.After(time.Duration(d), func() {
				fireTimes = append(fireTimes, s.Now())
			}))
		}
		cancelled := 0
		for i, tm := range timers {
			if i < len(cancelMask) && cancelMask[i] {
				if tm.Stop() {
					cancelled++
				}
			}
		}
		s.Run()
		if len(fireTimes) != len(delays)-cancelled {
			return false
		}
		for i := 1; i < len(fireTimes); i++ {
			if fireTimes[i] < fireTimes[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	s := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.After(time.Duration(i%1000), func() {})
		if i%1024 == 1023 {
			s.Run()
		}
	}
	s.Run()
}

// TestCountInto checks that the counter installed by CountInto receives
// every delivered event once Run or RunUntil returns, on a single loop
// and across all partitions of a sharded group, and that two simulators
// may share one counter.
func TestCountInto(t *testing.T) {
	var c atomic.Uint64
	single := New(1)
	single.CountInto(&c)
	sharded := NewSharded(1, 3)
	sharded.CountInto(&c)
	for i := 0; i < 3; i++ {
		single.At(Time(10*(i+1)), func() {})
		sharded.Group().Part(i).At(Time(10*(i+1)), func() {})
	}
	single.RunUntil(15)
	if got := c.Load(); got != 1 {
		t.Fatalf("after RunUntil(15): counter = %d, want 1", got)
	}
	single.Run()
	sharded.Run()
	if got := c.Load(); got != 6 {
		t.Fatalf("counter = %d, want 6", got)
	}
	if single.Processed()+sharded.Processed() != c.Load() {
		t.Fatalf("counter %d != Processed sum %d", c.Load(), single.Processed()+sharded.Processed())
	}
}
