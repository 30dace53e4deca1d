package roce

import (
	"fmt"
	"testing"
	"time"

	"falcon/internal/netsim"
	"falcon/internal/nic"
	"falcon/internal/sim"
)

var testLink = netsim.LinkConfig{GbpsRate: 100, PropDelay: time.Microsecond}

func pair(t *testing.T, cfg Config) (*sim.Simulator, *QP, *Responder, *netsim.Port) {
	s, qp, r, fwd, _ := pairBoth(t, cfg, false)
	return s, qp, r, fwd
}

// pairBoth is pair that also returns the responder's uplink, the port
// that carries responses, ACKs and NAKs to the requester. withNIC gives
// both nodes a NIC pipeline model, so packets pass through the pooled
// send and handle requests.
func pairBoth(t *testing.T, cfg Config, withNIC bool) (*sim.Simulator, *QP, *Responder, *netsim.Port, *netsim.Port) {
	t.Helper()
	s := sim.New(17)
	topo, fwd := netsim.PointToPoint(s, testLink)
	var na, nb *nic.NIC
	if withNIC {
		na, nb = nic.New(s, nic.DefaultConfig()), nic.New(s, nic.DefaultConfig())
	}
	a := NewNode(s, topo.Hosts[0], na)
	b := NewNode(s, topo.Hosts[1], nb)
	qp, r := Connect(a, b, 1, cfg)
	return s, qp, r, fwd, topo.ToRs[0].RouteTo(topo.Hosts[0].ID)[0]
}

func TestWriteDelivers(t *testing.T) {
	s, qp, r, _ := pair(t, DefaultConfig())
	done := false
	qp.Write(64<<10, func() { done = true })
	s.Run()
	if !done {
		t.Fatal("write never completed")
	}
	if r.Stats.DeliveredBytes != 64<<10 {
		t.Fatalf("delivered %d bytes", r.Stats.DeliveredBytes)
	}
}

func TestSendDelivers(t *testing.T) {
	s, qp, r, _ := pair(t, DefaultConfig())
	done := false
	qp.Send(8192, func() { done = true })
	s.Run()
	if !done || r.Stats.DeliveredBytes != 8192 {
		t.Fatalf("done=%v delivered=%d", done, r.Stats.DeliveredBytes)
	}
}

func TestReadCompletes(t *testing.T) {
	s, qp, _, _ := pair(t, DefaultConfig())
	done := false
	qp.Read(32<<10, func() { done = true })
	s.Run()
	if !done {
		t.Fatal("read never completed")
	}
	if qp.Stats.ReadBytes != 32<<10 {
		t.Fatalf("read bytes = %d", qp.Stats.ReadBytes)
	}
}

func TestGBNRecoversLossExpensively(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mode = GBN
	s, qp, r, fwd := pair(t, cfg)
	fwd.SetDropProb(0.05)
	completed := 0
	for i := 0; i < 50; i++ {
		qp.Write(8192, func() { completed++ })
	}
	s.Run()
	if completed != 50 {
		t.Fatalf("completed %d of 50 under loss", completed)
	}
	if qp.Stats.Retransmits == 0 {
		t.Fatal("GBN should retransmit under loss")
	}
	if r.Stats.DroppedOOO == 0 {
		t.Fatal("GBN receiver should drop OOO packets following a loss")
	}
}

func TestSRRetransmitsPreciselyForWrites(t *testing.T) {
	retxFor := func(mode Mode) uint64 {
		cfg := DefaultConfig()
		cfg.Mode = mode
		s, qp, _, fwd := pair(t, cfg)
		fwd.SetDropProb(0.03)
		completed := 0
		for i := 0; i < 30; i++ {
			qp.Write(16384, func() { completed++ })
		}
		s.Run()
		if completed != 30 {
			t.Fatalf("%v completed %d of 30", mode, completed)
		}
		return qp.Stats.Retransmits
	}
	gbn := retxFor(GBN)
	sr := retxFor(SR)
	if sr >= gbn {
		t.Fatalf("SR retransmits (%d) should be fewer than GBN (%d) for writes", sr, gbn)
	}
}

func TestSendLossFallsBackToGBNEvenInSR(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mode = SR
	s, qp, r, fwd := pair(t, cfg)
	fwd.SetDropProb(0.03)
	completed := 0
	for i := 0; i < 30; i++ {
		qp.Send(16384, func() { completed++ })
	}
	s.Run()
	if completed != 30 {
		t.Fatalf("completed %d of 30", completed)
	}
	// Sends are not SR-capable: OOO sends are dropped at the receiver.
	if r.Stats.DroppedOOO == 0 {
		t.Fatal("OOO sends should be dropped even in SR mode")
	}
}

func TestARRecoversOnlyByRTO(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mode = AR
	cfg.RTO = 200 * time.Microsecond
	s, qp, r, fwd := pair(t, cfg)
	fwd.SetDropProb(0.05)
	completed := 0
	for i := 0; i < 30; i++ {
		qp.Write(16384, func() { completed++ })
	}
	s.Run()
	if completed != 30 {
		t.Fatalf("completed %d of 30", completed)
	}
	if r.Stats.NaksSent != 0 {
		t.Fatal("AR mode must not NAK")
	}
	if qp.Stats.RTOs == 0 {
		t.Fatal("AR loss recovery must come from RTO")
	}
}

func TestARToleratesReorderingWithoutRetx(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mode = AR
	s, qp, _, fwd := pair(t, cfg)
	fwd.SetReorder(0.2, 15*time.Microsecond)
	completed := 0
	for i := 0; i < 20; i++ {
		qp.Write(16384, func() { completed++ })
	}
	s.Run()
	if completed != 20 {
		t.Fatalf("completed %d", completed)
	}
	if qp.Stats.Retransmits > 0 && qp.Stats.RTOs == 0 {
		t.Fatal("AR should not fast-retransmit under reordering")
	}
}

func TestGBNSuffersUnderReordering(t *testing.T) {
	run := func(mode Mode) uint64 {
		cfg := DefaultConfig()
		cfg.Mode = mode
		s, qp, _, fwd := pair(t, cfg)
		fwd.SetReorder(0.15, 15*time.Microsecond)
		completed := 0
		for i := 0; i < 20; i++ {
			qp.Write(16384, func() { completed++ })
		}
		s.Run()
		if completed != 20 {
			t.Fatalf("%v completed %d", mode, completed)
		}
		return qp.Stats.Retransmits
	}
	gbn := run(GBN)
	ar := run(AR)
	if gbn <= ar {
		t.Fatalf("GBN retransmits (%d) should exceed AR (%d) under pure reordering", gbn, ar)
	}
}

// TestReadLossRecovered loses read requests on the requester's uplink and,
// separately, read responses (and ACKs) on the responder's, in every mode.
// A lost response is recovered by re-issuing the read request that
// solicited it once the RTO fires: the responder acknowledged the request
// on arrival, so the request-stream rewind alone no longer covers it. The
// run is bounded, so a QP that stops recovering fails instead of spinning
// on RTOs.
func TestReadLossRecovered(t *testing.T) {
	for _, mode := range []Mode{GBN, SR, AR} {
		for _, reverse := range []bool{false, true} {
			cfg := DefaultConfig()
			cfg.Mode = mode
			cfg.RTO = 300 * time.Microsecond
			s, qp, _, fwd, rev := pairBoth(t, cfg, false)
			const reads = 20
			if reverse {
				rev.SetDropProb(0.05)
			} else {
				fwd.SetDropProb(0.03)
			}
			completed := 0
			for i := 0; i < reads; i++ {
				qp.Read(16384, func() { completed++ })
			}
			s.RunUntil(sim.Time(50 * time.Millisecond))
			if completed != reads {
				t.Fatalf("%v reverse=%v: completed %d of %d reads (%d RTOs, %d retransmits)",
					mode, reverse, completed, reads, qp.Stats.RTOs, qp.Stats.Retransmits)
			}
		}
	}
}

func TestRTTCCAdaptsRate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CC.TargetRTT = 1 * time.Microsecond // everything is "congested"
	s, qp, _, _ := pair(t, cfg)
	before := qp.RateGbps()
	for i := 0; i < 50; i++ {
		qp.Write(64<<10, nil)
	}
	s.Run()
	if qp.RateGbps() >= before {
		t.Fatalf("rate %v did not decrease with RTT above target", qp.RateGbps())
	}
}

func TestRTTCCIncreasesWhenIdlePath(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LinkGbps = 10 // start slow
	cfg.CC.TargetRTT = 10 * time.Millisecond
	s, qp, _, _ := pair(t, cfg)
	for i := 0; i < 50; i++ {
		qp.Write(64<<10, nil)
	}
	s.Run()
	if qp.RateGbps() <= 10 {
		t.Fatalf("rate %v did not increase below target", qp.RateGbps())
	}
}

func TestWindowBoundsOutstanding(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WindowSize = 8
	s, qp, _, fwd := pair(t, cfg)
	maxOut := 0
	fwd.SetDropProb(0)
	probe := func() {
		if o := qp.outstanding(); o > maxOut {
			maxOut = o
		}
	}
	for i := 0; i < 100; i++ {
		qp.Write(4096, probe)
	}
	s.Run()
	if maxOut > 8 {
		t.Fatalf("outstanding reached %d with window 8", maxOut)
	}
}

func TestModeStrings(t *testing.T) {
	if GBN.String() != "RoCE-GBN" || SR.String() != "RoCE-SR" || AR.String() != "RoCE-AR" {
		t.Fatal("mode strings")
	}
	if OpWrite.String() != "write" || OpSend.String() != "send" || OpRead.String() != "read" {
		t.Fatal("op strings")
	}
}

// TestPoolsBalanceAtQuiescence runs Writes, Sends and Reads under loss on
// the requester's uplink, and again on the responder's, in every mode,
// with and without NIC pipeline models. Once the run drains, every packet
// is back in the pair's pool, every op descriptor in the QP's, every send
// and handle request in its node's free list, and no event is pending.
func TestPoolsBalanceAtQuiescence(t *testing.T) {
	for _, mode := range []Mode{GBN, SR, AR} {
		for _, reverse := range []bool{false, true} {
			for _, withNIC := range []bool{false, true} {
				name := fmt.Sprintf("%v reverse=%v nic=%v", mode, reverse, withNIC)
				cfg := DefaultConfig()
				cfg.Mode = mode
				cfg.RTO = 200 * time.Microsecond
				s, qp, r, fwd, rev := pairBoth(t, cfg, withNIC)
				lossy := fwd
				if reverse {
					lossy = rev
				}
				lossy.SetDropProb(0.05)
				const ops = 60
				completed := 0
				for i := 0; i < ops; i++ {
					switch i % 3 {
					case 0:
						qp.Write(16384, func() { completed++ })
					case 1:
						qp.Send(6000, func() { completed++ })
					default:
						qp.Read(16384, func() { completed++ })
					}
				}
				s.Run()
				if completed != ops {
					t.Fatalf("%s: completed %d of %d", name, completed, ops)
				}
				if lossy.Stats.RandomDrops == 0 {
					t.Fatalf("%s: no packet was dropped", name)
				}
				if f, a := qp.pkts.Free(), qp.pkts.Allocated(); f != a || a == 0 {
					t.Errorf("%s: %d of %d packets back in the pool", name, f, a)
				}
				if f, a := qp.ops.Free(), qp.ops.Allocated(); f != a || a == 0 {
					t.Errorf("%s: %d of %d op descriptors back in the pool", name, f, a)
				}
				for _, n := range []*Node{qp.node, r.node} {
					if f, b := n.sendFree.Free(), n.sendFree.Built(); f != b || (withNIC && b == 0) {
						t.Errorf("%s: %d of %d send requests back in the free list", name, f, b)
					}
					if f, b := n.handleFree.Free(), n.handleFree.Built(); f != b || (withNIC && b == 0) {
						t.Errorf("%s: %d of %d handle requests back in the free list", name, f, b)
					}
				}
				if n := s.Pending(); n != 0 {
					t.Errorf("%s: %d events pending after the run drained", name, n)
				}
			}
		}
	}
}

// TestResponderForgetsAckedReads issues 10 000 Reads, at most a window's
// worth outstanding, and checks that the responder's table of read
// requests never spans more than the window: it forgets a request once
// the requester has acknowledged all of its responses.
func TestResponderForgetsAckedReads(t *testing.T) {
	cfg := DefaultConfig()
	s, qp, r, _ := pair(t, cfg)
	const reads = 10_000
	completed := 0
	var widest uint64
	var next func()
	next = func() {
		lo, hi := r.respOf.Bounds()
		widest = max(widest, hi-lo)
		if completed++; completed+cfg.WindowSize <= reads {
			qp.Read(4096, next)
		}
	}
	for i := 0; i < cfg.WindowSize; i++ {
		qp.Read(4096, next)
	}
	s.Run()
	if completed != reads {
		t.Fatalf("completed %d of %d reads", completed, reads)
	}
	if widest == 0 || widest > uint64(cfg.WindowSize) || r.respOf.Cap() > 2*cfg.WindowSize {
		t.Fatalf("read-request table spanned up to %d PSNs on a ring of %d, want at most the window of %d",
			widest, r.respOf.Cap(), cfg.WindowSize)
	}
	if r.respOf.Len() != 0 || r.respPkts.Len() != 0 {
		t.Fatalf("%d read requests and %d responses remembered after every response was acknowledged",
			r.respOf.Len(), r.respPkts.Len())
	}
}
