package netsim

import (
	"testing"
	"time"

	"falcon/internal/sim"
)

var testLink = LinkConfig{GbpsRate: 100, PropDelay: time.Microsecond}

func TestPointToPointDelivery(t *testing.T) {
	s := sim.New(1)
	topo, _ := PointToPoint(s, testLink)
	var got *Frame
	var at sim.Time
	topo.Hosts[1].SetHandler(HandlerFunc(func(f *Frame) {
		got = f
		at = s.Now()
	}))
	topo.Hosts[0].Send(&Frame{Dst: 1, Size: 1500, Payload: "hi"})
	s.Run()
	if got == nil {
		t.Fatal("frame not delivered")
	}
	if got.Src != 0 || got.Payload != "hi" || got.Hops != 1 {
		t.Fatalf("frame = %+v", got)
	}
	// Two serializations (host->sw, sw->host) at 100Gbps: 1500B = 120ns
	// each, plus 2x1us propagation.
	want := sim.Time(2*120 + 2000)
	if at != want {
		t.Fatalf("delivered at %v, want %v", at, want)
	}
}

func TestSerializationQueueing(t *testing.T) {
	// Two frames sent back-to-back: the second must wait for the first's
	// serialization on the shared uplink.
	s := sim.New(1)
	topo, _ := PointToPoint(s, testLink)
	var times []sim.Time
	topo.Hosts[1].SetHandler(HandlerFunc(func(f *Frame) { times = append(times, s.Now()) }))
	topo.Hosts[0].Send(&Frame{Dst: 1, Size: 1500})
	topo.Hosts[0].Send(&Frame{Dst: 1, Size: 1500})
	s.Run()
	if len(times) != 2 {
		t.Fatalf("delivered %d frames", len(times))
	}
	if gap := times[1] - times[0]; gap != 120 {
		t.Fatalf("inter-arrival %v, want 120ns (one serialization)", gap)
	}
}

// TestQueueOverflowDrops sends one same-instant burst larger than
// DefaultQueueBytes: the frames that fit are delivered, the rest dropped.
func TestQueueOverflowDrops(t *testing.T) {
	s := sim.New(1)
	link := LinkConfig{GbpsRate: 1, PropDelay: time.Microsecond}
	topo, _ := PointToPoint(s, link)
	delivered := 0
	topo.Hosts[1].SetHandler(HandlerFunc(func(f *Frame) { delivered++ }))
	const size, n = 1500, DefaultQueueBytes/1500 + 100
	for i := 0; i < n; i++ {
		topo.Hosts[0].Send(&Frame{Dst: 1, Size: size})
	}
	s.Run()
	up := topo.Hosts[0].Uplink()
	if delivered != DefaultQueueBytes/size || delivered+int(up.Stats.QueueDrops) != n {
		t.Fatalf("delivered %d + drops %d of %d, want %d delivered", delivered, up.Stats.QueueDrops, n, DefaultQueueBytes/size)
	}
}

func TestRandomDrop(t *testing.T) {
	s := sim.New(42)
	topo, fwd := PointToPoint(s, testLink)
	fwd.SetDropProb(0.5)
	delivered := 0
	topo.Hosts[1].SetHandler(HandlerFunc(func(f *Frame) { delivered++ }))
	const n = 2000
	for i := 0; i < n; i++ {
		i := i
		s.At(sim.Time(i)*1000, func() {
			topo.Hosts[0].Send(&Frame{Dst: 1, Size: 64})
		})
	}
	s.Run()
	if delivered < n*40/100 || delivered > n*60/100 {
		t.Fatalf("delivered %d of %d with 50%% drop", delivered, n)
	}
	if fwd.Stats.RandomDrops+uint64(delivered) != n {
		t.Fatalf("drops %d + delivered %d != %d", fwd.Stats.RandomDrops, delivered, n)
	}
}

func TestReorderInjection(t *testing.T) {
	s := sim.New(7)
	topo, fwd := PointToPoint(s, testLink)
	fwd.SetReorder(0.3, 20*time.Microsecond)
	var order []int
	topo.Hosts[1].SetHandler(HandlerFunc(func(f *Frame) { order = append(order, f.Payload.(int)) }))
	const n = 200
	for i := 0; i < n; i++ {
		i := i
		s.At(sim.Time(i)*2000, func() {
			topo.Hosts[0].Send(&Frame{Dst: 1, Size: 64, Payload: i})
		})
	}
	s.Run()
	if len(order) != n {
		t.Fatalf("delivered %d", len(order))
	}
	inversions := 0
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			inversions++
		}
	}
	if inversions == 0 {
		t.Fatal("expected reordering with 30% reorder prob")
	}
}

func TestLinkDown(t *testing.T) {
	s := sim.New(1)
	topo, fwd := PointToPoint(s, testLink)
	fwd.SetDown(true)
	delivered := 0
	topo.Hosts[1].SetHandler(HandlerFunc(func(f *Frame) { delivered++ }))
	topo.Hosts[0].Send(&Frame{Dst: 1, Size: 64})
	s.Run()
	if delivered != 0 {
		t.Fatal("frame delivered over a down link")
	}
	fwd.SetDown(false)
	topo.Hosts[0].Send(&Frame{Dst: 1, Size: 64})
	s.Run()
	if delivered != 1 {
		t.Fatal("frame not delivered after link restore")
	}
}

func TestRateChange(t *testing.T) {
	s := sim.New(1)
	topo, _ := PointToPoint(s, LinkConfig{GbpsRate: 100, PropDelay: 0})
	var at sim.Time
	topo.Hosts[1].SetHandler(HandlerFunc(func(f *Frame) { at = s.Now() }))
	topo.Hosts[0].Uplink().SetRateGbps(10) // 10x slower
	topo.Hosts[0].Send(&Frame{Dst: 1, Size: 1000})
	s.Run()
	// 1000B at 10Gbps = 800ns, then 1000B at 100Gbps = 80ns.
	if at != 880 {
		t.Fatalf("delivered at %v, want 880ns", at)
	}
}

func TestStarIncastConvergesAtBottleneck(t *testing.T) {
	s := sim.New(1)
	topo := Star(s, 5, testLink)
	server := topo.Hosts[0]
	delivered := 0
	server.SetHandler(HandlerFunc(func(f *Frame) { delivered++ }))
	for _, h := range topo.Hosts[1:] {
		for i := 0; i < 10; i++ {
			h.Send(&Frame{Dst: server.ID, Size: 1500})
		}
	}
	s.Run()
	if delivered != 40 {
		t.Fatalf("delivered %d, want 40", delivered)
	}
	// The bottleneck is the switch->server port.
	down := topo.ToRs[0].RouteTo(server.ID)[0]
	if down.Stats.MaxQueueBytes < 1500*10 {
		t.Fatalf("bottleneck queue max %d, expected buildup", down.Stats.MaxQueueBytes)
	}
}

func TestClosECMPSpreadsFlows(t *testing.T) {
	s := sim.New(1)
	fabric := LinkConfig{GbpsRate: 100, PropDelay: 2 * time.Microsecond}
	topo := TwoRack(s, 4, 4, testLink, fabric)
	dst := topo.Hosts[4] // other rack
	delivered := 0
	dst.SetHandler(HandlerFunc(func(f *Frame) { delivered++ }))
	// Send 64 flows with distinct hashes; they should spread over spines.
	for hash := uint64(0); hash < 64; hash++ {
		topo.Hosts[0].Send(&Frame{Dst: dst.ID, Size: 1500, FlowHash: hash})
	}
	s.Run()
	if delivered != 64 {
		t.Fatalf("delivered %d, want 64", delivered)
	}
	used := 0
	for _, spine := range topo.Spines {
		if spine.RxFrames > 0 {
			used++
		}
	}
	if used < 3 {
		t.Fatalf("only %d of 4 spines used; ECMP not spreading", used)
	}
}

func TestClosIntraRackStaysLocal(t *testing.T) {
	s := sim.New(1)
	topo := TwoRack(s, 4, 2, testLink, testLink)
	delivered := false
	topo.Hosts[1].SetHandler(HandlerFunc(func(f *Frame) { delivered = true }))
	topo.Hosts[0].Send(&Frame{Dst: 1, Size: 100})
	s.Run()
	if !delivered {
		t.Fatal("intra-rack frame lost")
	}
	for _, spine := range topo.Spines {
		if spine.RxFrames != 0 {
			t.Fatal("intra-rack traffic traversed a spine")
		}
	}
}

func TestSameHashSamePath(t *testing.T) {
	s := sim.New(1)
	topo := TwoRack(s, 2, 4, testLink, testLink)
	dst := topo.Hosts[2]
	dst.SetHandler(HandlerFunc(func(f *Frame) {}))
	for i := 0; i < 50; i++ {
		topo.Hosts[0].Send(&Frame{Dst: dst.ID, Size: 100, FlowHash: 0xabcdef})
	}
	s.Run()
	used := 0
	for _, spine := range topo.Spines {
		if spine.RxFrames > 0 {
			used++
		}
	}
	if used != 1 {
		t.Fatalf("same-hash flow used %d spines, want 1", used)
	}
}

func TestQueueDelayReflectsBacklog(t *testing.T) {
	s := sim.New(1)
	topo, _ := PointToPoint(s, LinkConfig{GbpsRate: 1, PropDelay: 0})
	up := topo.Hosts[0].Uplink()
	topo.Hosts[1].SetHandler(HandlerFunc(func(f *Frame) {}))
	topo.Hosts[0].Send(&Frame{Dst: 1, Size: 1000}) // 8us serialization at 1Gbps
	if d := up.QueueDelay(); d != 8*time.Microsecond {
		t.Fatalf("QueueDelay = %v, want 8us", d)
	}
	s.Run()
	if d := up.QueueDelay(); d != 0 {
		t.Fatalf("QueueDelay after drain = %v", d)
	}
}

func TestHopCount(t *testing.T) {
	s := sim.New(1)
	topo := TwoRack(s, 2, 2, testLink, testLink)
	var hops int
	topo.Hosts[2].SetHandler(HandlerFunc(func(f *Frame) { hops = f.Hops }))
	topo.Hosts[0].Send(&Frame{Dst: 2, Size: 100})
	s.Run()
	if hops != 3 { // ToR, spine, ToR
		t.Fatalf("hops = %d, want 3", hops)
	}
}

func TestECNMarkingBeyondThreshold(t *testing.T) {
	s := sim.New(1)
	link := LinkConfig{GbpsRate: 1, PropDelay: 0}
	topo, _ := PointToPoint(s, link)
	up := topo.Hosts[0].Uplink()
	up.SetECNThreshold(3000)
	var marked, clean int
	topo.Hosts[1].SetHandler(HandlerFunc(func(f *Frame) {
		if f.CE {
			marked++
		} else {
			clean++
		}
	}))
	for i := 0; i < 10; i++ {
		topo.Hosts[0].Send(&Frame{Dst: 1, Size: 1500})
	}
	s.Run()
	if marked == 0 {
		t.Fatal("no frames ECN-marked despite queue buildup")
	}
	if clean == 0 {
		t.Fatal("early frames (below threshold) should not be marked")
	}
	if up.Stats.ECNMarks != uint64(marked) {
		t.Fatalf("ECNMarks stat %d != %d delivered marks", up.Stats.ECNMarks, marked)
	}
}

// TestSetDownDepthNesting pins the hold-count semantics of SetDown: two
// overlapping failure schedules each take a hold, and the port only comes
// back when both release. A stray extra release on an up port must not
// drive the depth negative (which would make the next SetDown(true) a
// no-op and silently un-fail a failed port).
func TestSetDownDepthNesting(t *testing.T) {
	s := sim.New(1)
	_, fwd := PointToPoint(s, testLink)
	fwd.SetDown(true) // schedule A
	fwd.SetDown(true) // schedule B overlaps
	fwd.SetDown(false)
	if !fwd.Down() {
		t.Fatal("port released after one of two holds")
	}
	fwd.SetDown(false)
	if fwd.Down() {
		t.Fatal("port still down after both holds released")
	}
	fwd.SetDown(false) // stray release: must clamp at zero
	fwd.SetDown(true)
	if !fwd.Down() {
		t.Fatal("hold after a stray release had no effect: depth went negative")
	}
	fwd.SetDown(false)
	if fwd.Down() {
		t.Fatal("port stuck down after balanced holds")
	}
}

// TestPauseDepthNesting mirrors TestSetDownDepthNesting for host pauses
// and checks both drop counters: a paused host neither sends (PauseTxDrops)
// nor receives (PauseRxDrops), and traffic resumes cleanly once every
// overlapping hold releases.
func TestPauseDepthNesting(t *testing.T) {
	s := sim.New(1)
	topo, _ := PointToPoint(s, testLink)
	src, dst := topo.Hosts[0], topo.Hosts[1]
	dst.SetHandler(HandlerFunc(func(*Frame) {}))

	dst.SetPaused(true) // crash window...
	dst.SetPaused(true) // ...with a pause inside it
	src.Send(&Frame{Dst: 1, Size: 64})
	s.Run()
	if dst.RxFrames != 0 || dst.PauseRxDrops != 1 {
		t.Fatalf("paused host: rx=%d pause_rx_drops=%d, want 0/1", dst.RxFrames, dst.PauseRxDrops)
	}
	dst.SetPaused(false)
	if !dst.Paused() {
		t.Fatal("host resumed after one of two holds")
	}
	src.Send(&Frame{Dst: 1, Size: 64})
	s.Run()
	if dst.PauseRxDrops != 2 {
		t.Fatalf("inner hold alone did not drop: pause_rx_drops=%d", dst.PauseRxDrops)
	}
	dst.SetPaused(false)
	src.Send(&Frame{Dst: 1, Size: 64})
	s.Run()
	if dst.RxFrames != 1 {
		t.Fatalf("host did not resume receiving: rx=%d", dst.RxFrames)
	}

	src.SetPaused(true)
	src.Send(&Frame{Dst: 1, Size: 64})
	if src.PauseTxDrops != 1 || src.SentFrames != 3 {
		t.Fatalf("paused sender: tx_drops=%d sent=%d, want 1/3 (paused sends not counted as sent)",
			src.PauseTxDrops, src.SentFrames)
	}
	src.SetPaused(false)
}

// TestCorruptWindow pins the packet-corruption injection: inside the
// window every frame is lost and attributed to CorruptDrops (not
// RandomDrops), and clearing the probability restores lossless delivery.
func TestCorruptWindow(t *testing.T) {
	s := sim.New(11)
	topo, fwd := PointToPoint(s, testLink)
	topo.Hosts[1].SetHandler(HandlerFunc(func(*Frame) {}))
	fwd.SetCorruptProb(1)
	for i := 0; i < 5; i++ {
		topo.Hosts[0].Send(&Frame{Dst: 1, Size: 64})
	}
	s.Run()
	if topo.Hosts[1].RxFrames != 0 || fwd.Stats.CorruptDrops != 5 {
		t.Fatalf("full-corruption window: rx=%d corrupt_drops=%d, want 0/5",
			topo.Hosts[1].RxFrames, fwd.Stats.CorruptDrops)
	}
	if fwd.Stats.RandomDrops != 0 {
		t.Fatalf("corruption leaked into RandomDrops: %d", fwd.Stats.RandomDrops)
	}
	fwd.SetCorruptProb(0)
	for i := 0; i < 5; i++ {
		topo.Hosts[0].Send(&Frame{Dst: 1, Size: 64})
	}
	s.Run()
	if topo.Hosts[1].RxFrames != 5 || fwd.Stats.CorruptDrops != 5 {
		t.Fatalf("after window cleared: rx=%d corrupt_drops=%d, want 5/5",
			topo.Hosts[1].RxFrames, fwd.Stats.CorruptDrops)
	}
}
