package routing_test

// Gray-failure injector tests: determinism, drop accounting, and the
// slow-but-up contract. External package so the scenarios run on real
// netsim fabrics (see routing_test.go).

import (
	"testing"
	"time"

	"falcon/internal/netsim"
	"falcon/internal/routing"
	"falcon/internal/sim"
)

// grayRun drives one fixed scenario: a two-rack fabric under spray with
// a flapping uplink, a slowed uplink and a correlated outage of the
// remaining two, while host 0 streams paced frames to a host in the far
// rack across the whole window. Returns the delivered-frame count, the
// end-of-run virtual time, and per-uplink (TxFrames, DownDrops).
func grayRun(seed int64) (rx uint64, end sim.Time, tx, drops [4]uint64) {
	s := sim.New(seed)
	topo := netsim.TwoRack(s, 2, 4, testLink, testLink)
	topo.SetRoutingPolicy(routing.Spray{})
	for _, h := range topo.Hosts {
		h.SetHandler(netsim.HandlerFunc(func(*netsim.Frame) {}))
	}
	src, dst := topo.Hosts[0], topo.Hosts[2]
	uplinks := topo.ToRs[0].RouteTo(dst.ID)

	inj := routing.NewInjector(s)
	inj.Flap(uplinks[0], sim.Time(20*time.Microsecond), 30*time.Microsecond, 10*time.Microsecond, 3)
	inj.Slow(uplinks[1], sim.Time(40*time.Microsecond), 10, 60*time.Microsecond, testLink.GbpsRate)
	inj.RackOutage([]routing.FailPort{uplinks[2], uplinks[3]},
		sim.Time(80*time.Microsecond), 40*time.Microsecond)

	// Paced sender: one frame every 200ns for 200us, so traffic spans
	// every failure phase. Closures are fine here — test code is exempt
	// from the zero-alloc scheduling discipline.
	const frames = 1000
	for i := 0; i < frames; i++ {
		i := i
		s.At(sim.Time(i*200)*sim.Time(time.Nanosecond), func() {
			f := src.NewFrame()
			f.Dst = dst.ID
			f.FlowHash = uint64(i)
			f.Size = 1500
			src.Send(f)
		})
	}
	s.Run()
	for i, p := range uplinks {
		tx[i] = p.Stats.TxFrames
		drops[i] = p.Stats.DownDrops
	}
	return dst.RxFrames, s.Now(), tx, drops
}

// TestInjectorSameSeedDeterminism runs the full gray scenario twice with
// the same seed and requires identical delivery counts, end times and
// per-uplink counters — the injector is part of the deterministic event
// stream, not a side channel.
func TestInjectorSameSeedDeterminism(t *testing.T) {
	rx1, end1, tx1, dr1 := grayRun(7)
	rx2, end2, tx2, dr2 := grayRun(7)
	if rx1 != rx2 || end1 != end2 || tx1 != tx2 || dr1 != dr2 {
		t.Fatalf("same-seed runs diverged:\n run1 rx=%d end=%v tx=%v drops=%v\n run2 rx=%d end=%v tx=%v drops=%v",
			rx1, end1, tx1, dr1, rx2, end2, tx2, dr2)
	}
	if rx1 == 0 {
		t.Fatal("scenario delivered nothing")
	}
	if dr1[0] == 0 || dr1[2] == 0 || dr1[3] == 0 {
		t.Fatalf("flap/outage drew no down drops (%v) — injector inert?", dr1)
	}
}

// TestDownDropsAccountEveryLostFrame pins the loss ledger on a single
// path: with a flapping forward link and no other loss mechanism, every
// frame is either delivered or counted in DownDrops — none vanish.
func TestDownDropsAccountEveryLostFrame(t *testing.T) {
	s := sim.New(3)
	topo, fwd := netsim.PointToPoint(s, testLink)
	topo.Hosts[1].SetHandler(netsim.HandlerFunc(func(*netsim.Frame) {}))
	inj := routing.NewInjector(s)
	inj.Flap(fwd, sim.Time(10*time.Microsecond), 20*time.Microsecond, 15*time.Microsecond, 4)

	const frames = 600
	src := topo.Hosts[0]
	for i := 0; i < frames; i++ {
		s.At(sim.Time(i*250)*sim.Time(time.Nanosecond), func() {
			f := src.NewFrame()
			f.Dst = 1
			f.Size = 1000
			src.Send(f)
		})
	}
	s.Run()
	rx := topo.Hosts[1].RxFrames
	dd := fwd.Stats.DownDrops
	if fwd.Stats.TxFrames+dd != frames {
		t.Fatalf("forward port saw %d tx + %d down drops, want %d frames total",
			fwd.Stats.TxFrames, dd, frames)
	}
	if rx+dd != frames {
		t.Fatalf("%d delivered + %d down drops != %d sent: frames unaccounted for", rx, dd, frames)
	}
	if dd == 0 || rx == 0 {
		t.Fatalf("degenerate scenario: rx=%d down_drops=%d (flap window misses traffic?)", rx, dd)
	}
	if fwd.Stats.RandomDrops != 0 || fwd.Stats.QueueDrops != 0 {
		t.Fatalf("down drops leaked into other counters: random=%d queue=%d",
			fwd.Stats.RandomDrops, fwd.Stats.QueueDrops)
	}
}

// TestSlowPortStaysUp pins the gray-failure semantics of Slow: a
// degraded port is slow but healthy — its queue backs up and delivery
// stretches, yet it never reports a single down drop and every frame
// still arrives.
func TestSlowPortStaysUp(t *testing.T) {
	run := func(slow bool) (rx uint64, end sim.Time, fwd *netsim.Port) {
		s := sim.New(5)
		topo, fwdPort := netsim.PointToPoint(s, testLink)
		topo.Hosts[1].SetHandler(netsim.HandlerFunc(func(*netsim.Frame) {}))
		if slow {
			inj := routing.NewInjector(s)
			inj.Slow(fwdPort, 0, 2, 0, 0) // 200 -> 2 Gb/s, never restored
		}
		src := topo.Hosts[0]
		for i := 0; i < 200; i++ {
			s.At(sim.Time(i*500)*sim.Time(time.Nanosecond), func() {
				f := src.NewFrame()
				f.Dst = 1
				f.Size = 1000
				src.Send(f)
			})
		}
		s.Run()
		return topo.Hosts[1].RxFrames, s.Now(), fwdPort
	}
	fastRx, fastEnd, _ := run(false)
	slowRx, slowEnd, fwd := run(true)
	if fwd.Stats.DownDrops != 0 {
		t.Fatalf("slow-but-up port reported %d down drops, want 0", fwd.Stats.DownDrops)
	}
	if slowRx != fastRx {
		t.Fatalf("slow link delivered %d frames, healthy link %d — Slow must degrade, not drop", slowRx, fastRx)
	}
	if slowEnd <= fastEnd {
		t.Fatalf("slow run finished at %v, healthy at %v — degrade had no effect", slowEnd, fastEnd)
	}
	if fwd.Stats.MaxQueueBytes == 0 {
		t.Fatal("slow port queue never backed up — scenario too gentle to mean anything")
	}
}

// TestOverlappingFlapsCompose pins the depth-nesting contract from the
// injector's side: two Flaps on the same port with interleaved windows
// must compose — the port is down whenever either schedule holds it, and
// only the release of the LAST hold brings it back. Before depth counting
// this scenario un-failed the port early (flap A's up edge released flap
// B's hold).
func TestOverlappingFlapsCompose(t *testing.T) {
	s := sim.New(9)
	_, fwd := netsim.PointToPoint(s, testLink)
	inj := routing.NewInjector(s)
	us := func(n int) sim.Time { return sim.Time(n) * sim.Time(time.Microsecond) }
	// A: down [10,50)us. B: down [30,70)us. Overlap is [30,50)us.
	inj.Flap(fwd, us(10), 40*time.Microsecond, time.Microsecond, 1)
	inj.Flap(fwd, us(30), 40*time.Microsecond, time.Microsecond, 1)
	probe := func(at sim.Time, want bool, label string) {
		s.At(at, func() {
			if fwd.Down() != want {
				t.Errorf("at %v (%s): Down() = %v, want %v", at, label, fwd.Down(), want)
			}
		})
	}
	probe(us(5), false, "before either flap")
	probe(us(20), true, "A only")
	probe(us(40), true, "A and B overlap")
	probe(us(55), true, "A released, B still holds")
	probe(us(75), false, "both released")
	s.Run()
	if fwd.Down() {
		t.Fatal("port left down after both flaps completed")
	}
}

// TestInjectorStopDiscardsSchedules pins the Stop contract: schedule
// calls after Stop are no-ops, a flap already in its down phase is still
// restored (no port is left failed by a retired injector), no new down
// phase begins after Stop, and a stopped outage's restore edge does not
// release holds it never took (which would double-release an independent
// failure schedule on the same port).
func TestInjectorStopDiscardsSchedules(t *testing.T) {
	s := sim.New(13)
	_, fwd := netsim.PointToPoint(s, testLink)
	inj := routing.NewInjector(s)
	us := func(n int) sim.Time { return sim.Time(n) * sim.Time(time.Microsecond) }

	// 3 cycles: down [10,30), up [30,40), down [40,60), up [60,70), ...
	inj.Flap(fwd, us(10), 20*time.Microsecond, 10*time.Microsecond, 3)
	// Outage whose down edge lands after Stop: must be discarded, and its
	// restore must not release the independent hold taken at 45us.
	inj.RackOutage([]routing.FailPort{fwd}, us(50), 10*time.Microsecond)
	s.At(us(44), func() { inj.Stop() })        // during the second down phase
	s.At(us(45), func() { fwd.SetDown(true) }) // independent hold, not the injector's
	s.At(us(55), func() {
		if !fwd.Down() {
			t.Error("at 55us: independent hold released early")
		}
	})
	s.At(us(65), func() {
		// Flap's own restore (60us) ran; only the independent hold remains.
		fwd.SetDown(false)
		if fwd.Down() {
			t.Error("at 65us: port still held after flap restore + independent release")
		}
	})
	s.At(us(80), func() {
		if fwd.Down() {
			t.Error("at 80us: a discarded schedule re-failed the port")
		}
		// Schedules issued after Stop must be inert.
		inj.Flap(fwd, us(90), 5*time.Microsecond, time.Microsecond, 2)
		inj.Slow(fwd, us(90), 1, 0, 0)
		inj.RackOutage([]routing.FailPort{fwd}, us(90), 5*time.Microsecond)
	})
	s.Run()
	if !inj.Stopped() {
		t.Fatal("Stopped() = false after Stop")
	}
	if fwd.Down() {
		t.Fatal("post-Stop schedule failed the port")
	}
	if fwd.Stats.DownDrops != 0 {
		t.Fatalf("no traffic crossed a down window, yet DownDrops = %d", fwd.Stats.DownDrops)
	}
}
