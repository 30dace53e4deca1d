package chaos

import (
	"reflect"
	"testing"
	"time"

	"falcon/internal/netsim"
	"falcon/internal/routing"
	"falcon/internal/sim"
)

func fullSpec() Spec {
	return Spec{
		Events:      12,
		Start:       sim.Time(1 * time.Millisecond),
		End:         sim.Time(5 * time.Millisecond),
		Uplinks:     4,
		HostPorts:   8,
		Hosts:       8,
		Crashers:    8,
		Stallers:    4,
		Teardown:    true,
		RestoreGbps: 200,
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(42, fullSpec())
	b := Generate(42, fullSpec())
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different plans:\n%+v\n%+v", a, b)
	}
	c := Generate(43, fullSpec())
	if reflect.DeepEqual(a.Events, c.Events) {
		t.Fatalf("different seeds produced identical event lists")
	}
}

func TestGenerateBounds(t *testing.T) {
	sp := fullSpec()
	for seed := int64(1); seed <= 50; seed++ {
		p := Generate(seed, sp)
		if len(p.Events) != sp.Events {
			t.Fatalf("seed %d: got %d events, want %d", seed, len(p.Events), sp.Events)
		}
		for i, ev := range p.Events {
			if ev.At < sp.Start || ev.Clear() > sp.End {
				t.Fatalf("seed %d event %d outside window: at=%v clear=%v", seed, i, ev.At, ev.Clear())
			}
			n := sp.kindTargets(ev.Kind)
			if ev.Target < 0 || ev.Target >= n {
				t.Fatalf("seed %d event %d target %d out of range [0,%d)", seed, i, ev.Target, n)
			}
			if ev.Kind == KindFlap && ev.Cycles < 1 {
				t.Fatalf("flap with %d cycles", ev.Cycles)
			}
			if ev.Kind == KindCorrupt && (ev.Prob <= 0 || ev.Prob >= 1) {
				t.Fatalf("corrupt prob %v out of (0,1)", ev.Prob)
			}
			if ev.Kind == KindSlow && (ev.Gbps <= 0 || ev.Gbps >= sp.RestoreGbps) {
				t.Fatalf("slow gbps %v not a degradation of %v", ev.Gbps, sp.RestoreGbps)
			}
		}
		if p.FaultStart() < sp.Start || p.FaultClear() > sp.End {
			t.Fatalf("seed %d: fault window [%v,%v] outside spec window", seed, p.FaultStart(), p.FaultClear())
		}
	}
}

func TestGenerateDisabledKinds(t *testing.T) {
	sp := fullSpec()
	sp.Crashers = 0
	sp.Stallers = 0
	sp.Events = 200
	p := Generate(7, sp)
	for _, ev := range p.Events {
		if ev.Kind == KindCrash || ev.Kind == KindRNRStall {
			t.Fatalf("disabled kind %v generated", ev.Kind)
		}
	}
	if Generate(7, Spec{Events: 5}).Events != nil {
		t.Fatalf("spec with no targets should yield empty plan")
	}
}

// TestKindStrings pins the names experiment tables print.
func TestKindStrings(t *testing.T) {
	want := map[Kind]string{
		KindFlap: "flap", KindSlow: "slow", KindOutage: "outage",
		KindBlackhole: "blackhole", KindCorrupt: "corrupt",
		KindPause: "pause", KindCrash: "crash", KindRNRStall: "rnr_stall",
	}
	for k, s := range want {
		if k.String() != s {
			t.Fatalf("Kind(%d).String() = %q, want %q", k, k.String(), s)
		}
	}
	if Kind(99).String() != "unknown" {
		t.Fatalf("out-of-range kind should stringify as unknown")
	}
}

// pump drives a steady frame stream h0 -> h1 for envelope/ledger tests.
// Test files are exempt from the typed-action lint, so a closure is fine.
func pump(s *sim.Simulator, src, dst *netsim.Host, every time.Duration, until sim.Time, delivered *uint64) {
	var tick func()
	tick = func() {
		f := src.NewFrame()
		f.Dst = dst.ID
		f.Size = 1000
		src.Send(f)
		if s.Now().Add(every) <= until {
			s.After(every, tick)
		}
	}
	dst.SetHandler(netsim.HandlerFunc(func(f *netsim.Frame) {
		*delivered += uint64(f.Size)
	}))
	s.After(every, tick)
}

func TestEnvelopeRecovery(t *testing.T) {
	s := sim.New(1)
	topo, _ := netsim.PointToPoint(s, netsim.LinkConfig{GbpsRate: 100, PropDelay: time.Microsecond})
	h0, h1 := topo.Hosts[0], topo.Hosts[1]
	end := sim.Time(10 * time.Millisecond)

	var delivered uint64
	pump(s, h0, h1, 10*time.Microsecond, end, &delivered)
	env := NewEnvelope(s, &delivered, 500*time.Microsecond, end)

	// Pause the receiver for [3ms, 5ms): goodput drops to zero, then
	// returns to baseline the moment the pause lifts.
	faultStart := sim.Time(3 * time.Millisecond)
	faultClear := sim.Time(5 * time.Millisecond)
	s.At(faultStart, func() { h1.SetPaused(true) })
	s.At(faultClear, func() { h1.SetPaused(false) })

	s.Run()
	r := env.Finish(faultStart, faultClear, 80)
	if r.BaselineMbps == 0 {
		t.Fatalf("no baseline goodput measured: %+v", r)
	}
	if r.StormMbps >= r.BaselineMbps {
		t.Fatalf("storm goodput %d did not dip below baseline %d", r.StormMbps, r.BaselineMbps)
	}
	if !r.Recovered {
		t.Fatalf("recovery not detected: %+v", r)
	}
	// Recovery uses a 3-bucket trailing median, so the gap is bounded by
	// a few buckets past fault clear.
	if max := int64(4 * 500 * time.Microsecond); r.RecoveryNs > max {
		t.Fatalf("recovery took %dns, want <= %d", r.RecoveryNs, max)
	}
	l := Audit(topo.Net)
	if !l.Balanced() {
		t.Fatalf("ledger unbalanced: %s", l)
	}
	if l.PauseRxDrops == 0 {
		t.Fatalf("pause window counted no PauseRxDrops: %s", l)
	}
}

func TestEnvelopeNoRecovery(t *testing.T) {
	s := sim.New(1)
	topo, _ := netsim.PointToPoint(s, netsim.LinkConfig{GbpsRate: 100, PropDelay: time.Microsecond})
	h0, h1 := topo.Hosts[0], topo.Hosts[1]
	end := sim.Time(6 * time.Millisecond)

	var delivered uint64
	pump(s, h0, h1, 10*time.Microsecond, end, &delivered)
	env := NewEnvelope(s, &delivered, 500*time.Microsecond, end)

	// Fault never clears within the run: pause from 2ms to past the end.
	faultStart := sim.Time(2 * time.Millisecond)
	s.At(faultStart, func() { h1.SetPaused(true) })

	s.Run()
	r := env.Finish(faultStart, end, 80)
	if r.Recovered {
		t.Fatalf("recovery reported for a fault that never cleared: %+v", r)
	}
	if r.TailMbps != 0 {
		t.Fatalf("tail goodput %d for an uncleared fault", r.TailMbps)
	}
}

// TestApplyEndpointFaults drives one storm of every endpoint kind on a
// tiny fabric and checks the drop counters and ledger close.
func TestApplyEndpointFaults(t *testing.T) {
	s := sim.New(1)
	topo, _ := netsim.PointToPoint(s, netsim.LinkConfig{GbpsRate: 100, PropDelay: time.Microsecond})
	h0, h1 := topo.Hosts[0], topo.Hosts[1]
	end := sim.Time(12 * time.Millisecond)

	var delivered uint64
	pump(s, h0, h1, 10*time.Microsecond, end, &delivered)

	ms := func(n int) sim.Time { return sim.Time(time.Duration(n) * time.Millisecond) }
	plan := Plan{Seed: 1, RestoreGbps: 100, Events: []Event{
		{Kind: KindBlackhole, Target: 0, At: ms(1), For: time.Millisecond},
		{Kind: KindCorrupt, Target: 0, At: ms(3), For: time.Millisecond, Prob: 0.5},
		{Kind: KindPause, Target: 1, At: ms(5), For: time.Millisecond},
		{Kind: KindCrash, Target: 1, At: ms(7), For: time.Millisecond},
	}}
	Apply(s, Targets{
		Uplinks:   []*netsim.Port{h0.Uplink()},
		HostPorts: []*netsim.Port{h0.Uplink(), h1.Uplink()},
		Hosts:     []*netsim.Host{h0, h1},
		Crashers:  []Crasher{nil, nil},
	}, plan)

	s.Run()
	up := h0.Uplink()
	if up.Stats.DownDrops == 0 {
		t.Fatalf("blackhole window dropped nothing")
	}
	if up.Stats.CorruptDrops == 0 {
		t.Fatalf("corruption window dropped nothing")
	}
	if h1.PauseRxDrops == 0 {
		t.Fatalf("pause/crash windows dropped nothing at the receiver")
	}
	if h1.Paused() || up.Down() {
		t.Fatalf("faults not all restored: paused=%v down=%v", h1.Paused(), up.Down())
	}
	l := Audit(topo.Net)
	if !l.Balanced() {
		t.Fatalf("ledger unbalanced: %s", l)
	}
	if l.Sent != l.Delivered+l.DownDrops+l.CorruptDrops+l.PauseRxDrops {
		t.Fatalf("unexpected drop attribution: %s", l)
	}
}

// TestApplyFabricKindsCompose checks the fabric kinds nest with each
// other (overlapping windows on one port).
func TestApplyFabricKindsCompose(t *testing.T) {
	s := sim.New(1)
	topo, _ := netsim.PointToPoint(s, netsim.LinkConfig{GbpsRate: 100, PropDelay: time.Microsecond})
	h0, h1 := topo.Hosts[0], topo.Hosts[1]
	end := sim.Time(12 * time.Millisecond)

	var delivered uint64
	pump(s, h0, h1, 10*time.Microsecond, end, &delivered)

	ms := func(n int) sim.Time { return sim.Time(time.Duration(n) * time.Millisecond) }
	// Two overlapping events on the same uplink: a 2-cycle flap inside a
	// wider 2-port outage (the port pair here is the same port twice is
	// not allowed — use two real targets on distinct ports).
	plan := Plan{Seed: 1, RestoreGbps: 100, Events: []Event{
		{Kind: KindOutage, Target: 0, At: ms(2), For: 3 * time.Millisecond},
		{Kind: KindFlap, Target: 0, At: ms(3), For: time.Millisecond, Cycles: 2},
		{Kind: KindSlow, Target: 1, At: ms(6), For: 2 * time.Millisecond, Gbps: 10},
	}}
	Apply(s, Targets{
		Uplinks: []*netsim.Port{h0.Uplink(), h1.Uplink()},
	}, plan)

	s.Run()
	if h0.Uplink().Down() || h1.Uplink().Down() {
		t.Fatalf("overlapping fabric faults left a port down")
	}
	if h0.Uplink().Stats.DownDrops == 0 {
		t.Fatalf("outage+flap dropped nothing")
	}
	l := Audit(topo.Net)
	if !l.Balanced() {
		t.Fatalf("ledger unbalanced: %s", l)
	}
}

var testLink = netsim.LinkConfig{GbpsRate: 200, PropDelay: time.Microsecond}

// us is n microseconds of virtual time.
func us(n int) sim.Time { return sim.Time(n) * sim.Time(time.Microsecond) }

// grayRun drives one fixed scenario: a two-rack fabric under policy p
// with a flapping uplink, a slowed uplink and a correlated outage of the
// remaining two, while host 0 streams paced frames (one flow label each,
// so ECMP spreads them over the group) to a host in the far rack across
// the whole window. Returns the delivered-frame count, the end-of-run
// virtual time, and per-uplink (TxFrames, DownDrops).
func grayRun(seed int64, p routing.Policy) (rx uint64, end sim.Time, tx, drops [4]uint64) {
	s := sim.New(seed)
	topo := netsim.TwoRack(s, 2, 4, testLink, testLink)
	topo.SetRoutingPolicy(p)
	for _, h := range topo.Hosts {
		h.SetHandler(netsim.HandlerFunc(func(*netsim.Frame) {}))
	}
	src, dst := topo.Hosts[0], topo.Hosts[2]
	uplinks := topo.ToRs[0].RouteTo(dst.ID)
	var targets Targets
	for _, p := range uplinks {
		targets.Uplinks = append(targets.Uplinks, p)
	}
	Apply(s, targets, Plan{RestoreGbps: testLink.GbpsRate, Events: []Event{
		{Kind: KindFlap, Target: 0, At: us(20), For: 120 * time.Microsecond, Cycles: 3},
		{Kind: KindSlow, Target: 1, At: us(40), For: 60 * time.Microsecond, Gbps: 10},
		{Kind: KindOutage, Target: 2, At: us(80), For: 40 * time.Microsecond},
	}})

	// Paced sender: one frame every 200ns for 200us, so traffic spans
	// every failure phase.
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

// TestApplySameSeedDeterminism runs the full gray scenario twice with the
// same seed under every routing policy and requires identical delivery
// counts, end times and per-uplink counters — fabric faults are part of
// the deterministic event stream, not a side channel, on the default and
// the non-default fabrics alike.
func TestApplySameSeedDeterminism(t *testing.T) {
	for _, p := range routing.Policies() {
		t.Run(p.Name(), func(t *testing.T) {
			rx1, end1, tx1, dr1 := grayRun(7, p)
			rx2, end2, tx2, dr2 := grayRun(7, p)
			if rx1 != rx2 || end1 != end2 || tx1 != tx2 || dr1 != dr2 {
				t.Fatalf("same-seed runs diverged:\n run1 rx=%d end=%v tx=%v drops=%v\n run2 rx=%d end=%v tx=%v drops=%v",
					rx1, end1, tx1, dr1, rx2, end2, tx2, dr2)
			}
			if rx1 == 0 {
				t.Fatal("scenario delivered nothing")
			}
			if dr1[0] == 0 {
				t.Fatalf("flap drew no down drops (%v) — faults inert?", dr1)
			}
			// Adaptive ties go to the lowest index, so the paced stream
			// never reaches the outage pair; the load-oblivious policies
			// must see drops there too.
			if _, ok := p.(routing.Adaptive); !ok && (dr1[2] == 0 || dr1[3] == 0) {
				t.Fatalf("outage drew no down drops (%v) — faults inert?", dr1)
			}
		})
	}
}

// TestDownDropsAccountEveryLostFrame pins the loss ledger on a single
// path: with a flapping forward link and no other loss mechanism, every
// frame is either delivered or counted in DownDrops — none vanish.
func TestDownDropsAccountEveryLostFrame(t *testing.T) {
	s := sim.New(3)
	topo, fwd := netsim.PointToPoint(s, testLink)
	topo.Hosts[1].SetHandler(netsim.HandlerFunc(func(*netsim.Frame) {}))
	// Four 20us-down / 20us-up cycles from 10us.
	Apply(s, Targets{Uplinks: []*netsim.Port{fwd}}, Plan{Events: []Event{
		{Kind: KindFlap, Target: 0, At: us(10), For: 160 * time.Microsecond, Cycles: 4},
	}})

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

// TestSlowPortStaysUp pins the gray-failure semantics of KindSlow: a
// degraded port is slow but healthy — its queue backs up and delivery
// stretches, yet it never reports a single down drop and every frame
// still arrives.
func TestSlowPortStaysUp(t *testing.T) {
	run := func(slow bool) (rx uint64, end sim.Time, fwd *netsim.Port) {
		s := sim.New(5)
		topo, fwdPort := netsim.PointToPoint(s, testLink)
		topo.Hosts[1].SetHandler(netsim.HandlerFunc(func(*netsim.Frame) {}))
		if slow {
			// 200 -> 2 Gb/s; For 0: never restored.
			Apply(s, Targets{Uplinks: []*netsim.Port{fwdPort}}, Plan{Events: []Event{
				{Kind: KindSlow, Target: 0, At: 0, Gbps: 2},
			}})
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

// TestOverlappingFlapsCompose pins the depth-nesting contract: two flaps
// on the same port with interleaved windows must compose — the port is
// down whenever either schedule holds it, and only the release of the
// LAST hold brings it back (flap A's up edge must not release flap B's
// hold).
func TestOverlappingFlapsCompose(t *testing.T) {
	s := sim.New(9)
	_, fwd := netsim.PointToPoint(s, testLink)
	// A: down [10,50)us. B: down [30,70)us. Overlap is [30,50)us.
	Apply(s, Targets{Uplinks: []*netsim.Port{fwd}}, Plan{Events: []Event{
		{Kind: KindFlap, Target: 0, At: us(10), For: 80 * time.Microsecond, Cycles: 1},
		{Kind: KindFlap, Target: 0, At: us(30), For: 80 * time.Microsecond, Cycles: 1},
	}})
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

func TestMedian3(t *testing.T) {
	d := []uint64{5, 1, 9, 3}
	if got := median3(d, 0); got != 5 {
		t.Fatalf("median3 at 0 = %d, want 5", got)
	}
	if got := median3(d, 1); got != 5 { // window {5,1}, upper median
		t.Fatalf("median3 at 1 = %d, want 5", got)
	}
	if got := median3(d, 2); got != 5 { // {5,1,9}
		t.Fatalf("median3 at 2 = %d, want 5", got)
	}
	if got := median3(d, 3); got != 3 { // {1,9,3}
		t.Fatalf("median3 at 3 = %d, want 3", got)
	}
}
