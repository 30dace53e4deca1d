package fae

import (
	"testing"
	"time"

	"falcon/internal/falcon/wire"
	"falcon/internal/sim"
)

func newEngine(t *testing.T, cfg Config) (*sim.Simulator, *Engine, *[]Response) {
	t.Helper()
	s := sim.New(1)
	var responses []Response
	e := New(s, cfg, func(r Response) { responses = append(responses, r) })
	return s, e, &responses
}

func ackEvent(conn uint32, flow int, delay time.Duration, now sim.Time) Event {
	return Event{
		Kind:           EventAck,
		Conn:           conn,
		Flow:           flow,
		Now:            now,
		FabricDelay:    delay,
		RTT:            delay + 10*time.Microsecond,
		AckedPackets:   1,
		Hops:           2,
		RxBufOccupancy: 0.1,
	}
}

func TestRegisterConnAssignsDistinctLabels(t *testing.T) {
	_, e, _ := newEngine(t, DefaultConfig())
	labels := e.RegisterConn(1, 4)
	if len(labels) != 4 {
		t.Fatalf("labels = %d, want 4", len(labels))
	}
	seen := map[wire.FlowLabel]bool{}
	for i, l := range labels {
		if l.FlowIndex() != i {
			t.Errorf("label %d has flow index %d", i, l.FlowIndex())
		}
		if seen[l] {
			t.Errorf("duplicate label %v", l)
		}
		seen[l] = true
	}
}

func TestRegisterConnClampsFlows(t *testing.T) {
	_, e, _ := newEngine(t, DefaultConfig())
	if got := len(e.RegisterConn(1, 0)); got != 1 {
		t.Fatalf("0 flows -> %d, want 1", got)
	}
	if got := len(e.RegisterConn(2, 100)); got != wire.MaxFlows {
		t.Fatalf("100 flows -> %d, want %d", got, wire.MaxFlows)
	}
}

func TestAckEventProducesResponse(t *testing.T) {
	s, e, resp := newEngine(t, DefaultConfig())
	e.RegisterConn(1, 2)
	e.Post(ackEvent(1, 0, 5*time.Microsecond, s.Now()))
	s.Run()
	if len(*resp) != 1 {
		t.Fatalf("responses = %d", len(*resp))
	}
	r := (*resp)[0]
	if r.Conn != 1 || r.Flow != 0 {
		t.Fatalf("response addressed to %d/%d", r.Conn, r.Flow)
	}
	if r.FlowCwnd <= 0 || r.ConnCwnd < r.FlowCwnd || r.NCwnd <= 0 {
		t.Fatalf("bad windows: %+v", r)
	}
	if r.RTO < minRTO {
		t.Fatalf("RTO = %v below minRTO", r.RTO)
	}
}

func TestUnknownConnIgnored(t *testing.T) {
	s, e, resp := newEngine(t, DefaultConfig())
	e.Post(ackEvent(99, 0, time.Microsecond, s.Now()))
	s.Run()
	if len(*resp) != 0 {
		t.Fatal("event for unknown connection produced a response")
	}
}

func TestResponseDelay(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ResponseDelay = 32 * time.Microsecond
	s, e, resp := newEngine(t, cfg)
	e.RegisterConn(1, 1)
	var when sim.Time
	e.Post(ackEvent(1, 0, time.Microsecond, s.Now()))
	s.At(1, func() {}) // keep sim alive trivially
	s.Run()
	if len(*resp) != 1 {
		t.Fatalf("responses = %d", len(*resp))
	}
	when = s.Now()
	if when < sim.Time(32*1000) {
		t.Fatalf("response arrived at %v, want >= 32us", when)
	}
}

func TestCongestionDecreasesFlowCwnd(t *testing.T) {
	s, e, resp := newEngine(t, DefaultConfig())
	e.RegisterConn(1, 1)
	e.Post(ackEvent(1, 0, time.Microsecond, 0))
	s.Run()
	low := (*resp)[0].FlowCwnd
	e.Post(ackEvent(1, 0, 500*time.Microsecond, sim.Time(time.Millisecond)))
	s.Run()
	high := (*resp)[1].FlowCwnd
	if high >= low {
		t.Fatalf("congested sample did not shrink cwnd: %v -> %v", low, high)
	}
}

func TestPLBRepathsAfterPersistentCongestion(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PLBCongestedRounds = 4
	s, e, resp := newEngine(t, cfg)
	labels := e.RegisterConn(1, 1)
	orig := labels[0]
	now := sim.Time(0)
	for i := 0; i < 4; i++ {
		now = now.Add(100 * time.Microsecond)
		e.Post(ackEvent(1, 0, time.Millisecond, now))
	}
	s.Run()
	last := (*resp)[len(*resp)-1]
	if !last.Repathed {
		t.Fatal("PLB did not repath after persistent congestion")
	}
	if last.FlowLabel == orig {
		t.Fatal("flow label unchanged after repath")
	}
	if last.FlowLabel.FlowIndex() != orig.FlowIndex() {
		t.Fatal("repath changed the flow index")
	}
	if e.Repaths != 1 {
		t.Fatalf("Repaths = %d", e.Repaths)
	}
}

func TestPLBCounterDecaysOnGoodRounds(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PLBCongestedRounds = 3
	s, e, resp := newEngine(t, cfg)
	e.RegisterConn(1, 1)
	now := sim.Time(0)
	// Alternate congested/uncongested: should never reach the threshold.
	for i := 0; i < 20; i++ {
		now = now.Add(100 * time.Microsecond)
		d := time.Microsecond
		if i%2 == 0 {
			d = time.Millisecond
		}
		e.Post(ackEvent(1, 0, d, now))
	}
	s.Run()
	for _, r := range *resp {
		if r.Repathed {
			t.Fatal("repathed despite alternating congestion")
		}
	}
}

func TestPRRRepathsOnRTO(t *testing.T) {
	s, e, resp := newEngine(t, DefaultConfig())
	labels := e.RegisterConn(1, 2)
	e.Post(Event{Kind: EventRTO, Conn: 1, Flow: 1, Now: 0})
	s.Run()
	r := (*resp)[0]
	if !r.Repathed || r.FlowLabel == labels[1] {
		t.Fatalf("RTO should repath: %+v", r)
	}
	if r.FlowCwnd != 1 { // cc.Swift's post-RTO window
		t.Fatalf("RTO cwnd = %v", r.FlowCwnd)
	}
}

// TestFcwndCapMatchesSwift holds fcwndCap, the ceiling α_c normalizes
// against, to the ceiling cc.Swift actually clamps a flow's window to.
func TestFcwndCapMatchesSwift(t *testing.T) {
	s, e, resp := newEngine(t, DefaultConfig())
	e.RegisterConn(1, 1)
	for i := 0; i < 200; i++ {
		ev := ackEvent(1, 0, time.Microsecond, sim.Time(i)*sim.Time(time.Millisecond))
		ev.AckedPackets = 1000
		e.Post(ev)
	}
	s.Run()
	if got := (*resp)[len(*resp)-1].FlowCwnd; got != fcwndCap {
		t.Fatalf("saturated fcwnd = %v, fcwndCap = %v", got, float64(fcwndCap))
	}
}

func TestFastRetransmitShrinksWindow(t *testing.T) {
	s, e, resp := newEngine(t, DefaultConfig())
	e.RegisterConn(1, 1)
	e.Post(ackEvent(1, 0, time.Microsecond, 0)) // grow + establish srtt
	e.Post(Event{Kind: EventFastRetransmit, Conn: 1, Flow: 0, Now: sim.Time(time.Millisecond)})
	s.Run()
	if len(*resp) != 2 {
		t.Fatalf("responses = %d", len(*resp))
	}
	if (*resp)[1].FlowCwnd >= (*resp)[0].FlowCwnd {
		t.Fatal("fast retransmit did not shrink cwnd")
	}
}

func TestConnCwndSumsFlows(t *testing.T) {
	s, e, resp := newEngine(t, DefaultConfig())
	e.RegisterConn(1, 4)
	e.Post(ackEvent(1, 0, time.Microsecond, 0))
	s.Run()
	r := (*resp)[0]
	if r.ConnCwnd < 4*r.FlowCwnd*0.9 {
		// All four flows start equal; sum should be ~4x one flow
		// (flow 0 just grew slightly).
		t.Fatalf("ConnCwnd %v vs FlowCwnd %v", r.ConnCwnd, r.FlowCwnd)
	}
}

func TestAlphaShrinksUnderCongestion(t *testing.T) {
	s, e, resp := newEngine(t, DefaultConfig())
	e.RegisterConn(1, 1)
	e.RegisterConn(2, 1)
	// Connection 1: healthy. Connection 2: congested and occupied.
	e.Post(ackEvent(1, 0, time.Microsecond, 0))
	ev := ackEvent(2, 0, time.Millisecond, 0)
	ev.RxBufOccupancy = 0.9
	e.Post(ev)
	s.Run()
	healthy, congested := (*resp)[0].Alpha, (*resp)[1].Alpha
	if congested >= healthy {
		t.Fatalf("α_c congested %v >= healthy %v", congested, healthy)
	}
}

func TestOutOfRangeFlowClamped(t *testing.T) {
	s, e, resp := newEngine(t, DefaultConfig())
	e.RegisterConn(1, 1)
	e.Post(ackEvent(1, 7, time.Microsecond, 0))
	s.Run()
	if len(*resp) != 1 || (*resp)[0].Flow != 0 {
		t.Fatalf("out-of-range flow not clamped: %+v", *resp)
	}
}

func TestUnregisterConn(t *testing.T) {
	s, e, resp := newEngine(t, DefaultConfig())
	e.RegisterConn(1, 1)
	e.UnregisterConn(1)
	e.Post(ackEvent(1, 0, time.Microsecond, 0))
	s.Run()
	if len(*resp) != 0 {
		t.Fatal("unregistered connection still processed")
	}
	if e.FlowLabels(1) != nil {
		t.Fatal("labels survive unregister")
	}
}

func TestECNSupplementarySignal(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UseECN = true
	s, e, resp := newEngine(t, cfg)
	e.RegisterConn(1, 1)
	// Delay below target but ECE set: the window must still decrease.
	ev := ackEvent(1, 0, time.Microsecond, 0)
	e.Post(ev)
	s.Run()
	grew := (*resp)[0].FlowCwnd
	ev2 := ackEvent(1, 0, time.Microsecond, sim.Time(time.Millisecond))
	ev2.ECE = true
	e.Post(ev2)
	s.Run()
	after := (*resp)[1].FlowCwnd
	if after >= grew {
		t.Fatalf("ECE did not shrink cwnd: %v -> %v", grew, after)
	}
	// With UseECN off, ECE is ignored.
	cfg2 := DefaultConfig()
	s2, e2, resp2 := newEngine(t, cfg2)
	e2.RegisterConn(1, 1)
	ev3 := ackEvent(1, 0, time.Microsecond, 0)
	ev3.ECE = true
	e2.Post(ev3)
	s2.Run()
	if (*resp2)[0].FlowCwnd <= 16.0/1 {
		// initial 16, one below-target ack grows it
		t.Fatalf("ECE should be ignored when disabled: %v", (*resp2)[0].FlowCwnd)
	}
}

// TestKeysOutsideTheTable registers keys 1 and 3 and drives the engine
// with keys it never registered, keys past its table and keys it
// unregistered: each is ignored without a panic, and the registered
// connections keep their state.
func TestKeysOutsideTheTable(t *testing.T) {
	s, e, resp := newEngine(t, DefaultConfig())
	one := e.RegisterConn(1, 2)
	e.RegisterConn(3, 1)
	strangers := []uint32{0, 2, 4, 1 << 31, ^uint32(0)}
	for _, key := range strangers {
		e.Post(ackEvent(key, 0, time.Microsecond, s.Now()))
		e.UnregisterConn(key)
		if got := e.FlowLabels(key); got != nil {
			t.Fatalf("key %d: FlowLabels = %v, want nil", key, got)
		}
	}
	s.Run()
	if len(*resp) != 0 || e.EventsProcessed != 0 {
		t.Fatalf("%d responses, %d events processed for unregistered keys", len(*resp), e.EventsProcessed)
	}
	if got := e.FlowLabels(1); len(got) != 2 || got[0] != one[0] || got[1] != one[1] {
		t.Fatalf("key 1's labels %v, want %v", got, one)
	}

	e.Post(ackEvent(3, 0, time.Microsecond, s.Now()))
	e.UnregisterConn(3)
	e.Post(ackEvent(3, 0, time.Microsecond, s.Now()))
	s.Run()
	if len(*resp) != 1 || (*resp)[0].Conn != 3 {
		t.Fatalf("responses %+v, want one for key 3 before it was unregistered", *resp)
	}

	// A key far past the table grows it; a re-registered key starts fresh.
	far := e.RegisterConn(1000, 1)
	again := e.RegisterConn(3, 1)
	if far[0] == again[0] || again[0] == one[0] {
		t.Fatalf("labels %v, %v and %v are not distinct", far, again, one)
	}
	for _, key := range []uint32{1, 3, 1000} {
		e.Post(ackEvent(key, 0, time.Microsecond, s.Now()))
	}
	e.Post(ackEvent(999, 0, time.Microsecond, s.Now()))
	s.Run()
	if len(*resp) != 4 {
		t.Fatalf("%d responses, want 4", len(*resp))
	}
	for i, key := range []uint32{1, 3, 1000} {
		if got := (*resp)[1+i].Conn; got != key {
			t.Fatalf("response %d for key %d, want %d", 1+i, got, key)
		}
	}
}

// TestUnregisterBeforeDelayedResponse unregisters a connection while its
// event waits out ResponseDelay: the event is dropped when it runs.
func TestUnregisterBeforeDelayedResponse(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ResponseDelay = 10 * time.Microsecond
	s, e, resp := newEngine(t, cfg)
	e.RegisterConn(0, 1)
	e.Post(ackEvent(0, 0, time.Microsecond, s.Now()))
	e.UnregisterConn(0)
	s.Run()
	if len(*resp) != 0 {
		t.Fatalf("%d responses for a connection unregistered before they were due", len(*resp))
	}
}
