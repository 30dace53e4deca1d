// Package cc implements Falcon's congestion-control algorithms: a variant
// of Swift (Kumar et al., SIGCOMM 2020) adapted per §4.2 to drive two
// windows — fcwnd (fabric congestion window, per multipath flow, from
// fabric delay) and ncwnd (NIC congestion window, per connection, from the
// receiver's RX packet-buffer occupancy). The effective send window is
// min(sum of flow fcwnds, ncwnd).
//
// The algorithms here are pure state machines over explicit samples; the
// FAE (internal/falcon/fae) owns instances of them and the PDL feeds them
// measurements, mirroring the paper's mechanism/management split (Table 3).
package cc

import (
	"math"
	"time"

	"falcon/internal/sim"
)

// SwiftConfig parameterizes the fabric-delay AIMD loop. Defaults follow the
// published Swift constants scaled to intra-cluster RTTs; only the base
// target varies across the evaluation (the ECN ablation raises it).
type SwiftConfig struct {
	// BaseTargetDelay is the fabric target delay for a 0-hop path.
	BaseTargetDelay time.Duration
}

// DefaultSwiftConfig returns the configuration used across the evaluation:
// 25us base fabric target (Swift's intra-cluster setting).
func DefaultSwiftConfig() SwiftConfig {
	return SwiftConfig{BaseTargetDelay: 25 * time.Microsecond}
}

// Swift's fixed constants: gentle AI and decisive MD.
const (
	// swiftPerHopDelay scales the target with topology depth.
	swiftPerHopDelay = 1 * time.Microsecond
	// swiftAI is the additive increase in packets per RTT of acked
	// traffic.
	swiftAI = 1.0
	// swiftBeta is the multiplicative-decrease gain.
	swiftBeta = 0.8
	// swiftMaxMDF caps a single multiplicative decrease (fraction of
	// cwnd).
	swiftMaxMDF = 0.5
	// swiftMinCwnd and swiftMaxCwnd bound the window, in packets.
	// swiftMinCwnd is fractional: below 1.0 the sender paces packets with
	// inter-packet gaps instead of sending a full packet per RTT.
	swiftMinCwnd, swiftMaxCwnd = 0.01, 256
	// swiftRTOCwnd is the window after a retransmission timeout.
	swiftRTOCwnd = 1
)

// Swift is one fabric congestion-control instance (one per multipath flow).
type Swift struct {
	cfg       SwiftConfig
	cwnd      float64
	tLast     sim.Time // time of last multiplicative decrease
	decreased bool     // whether any decrease has happened yet
	// srtt is a smoothed RTT estimate used to space decreases one RTT
	// apart and to derive pacing delays.
	srtt time.Duration
}

// NewSwift returns a Swift instance with the given initial window. It is a
// value so that its owner can keep it inline.
func NewSwift(cfg SwiftConfig, initialCwnd float64) Swift {
	if initialCwnd <= 0 {
		initialCwnd = swiftMaxCwnd / 4
	}
	return Swift{cfg: cfg, cwnd: clamp(initialCwnd, swiftMinCwnd, swiftMaxCwnd)}
}

// Cwnd returns the current fabric congestion window in packets.
func (s *Swift) Cwnd() float64 { return s.cwnd }

// SRTT returns the smoothed round-trip estimate (zero until first sample).
func (s *Swift) SRTT() time.Duration { return s.srtt }

// TargetDelay returns the delay target for a path with the given hop count.
func (s *Swift) TargetDelay(hops int) time.Duration {
	return s.cfg.BaseTargetDelay + time.Duration(hops)*swiftPerHopDelay
}

// Sample is one congestion signal delivered with an ACK.
type Sample struct {
	// FabricDelay is (t4-t1)-(t3-t2): wire-to-wire delay minus receiver
	// residence time.
	FabricDelay time.Duration
	// RTT is the full round trip (t4-t1), used for SRTT.
	RTT time.Duration
	// AckedPackets is how many packets this ACK newly acknowledged for
	// the flow.
	AckedPackets int
	// Hops is the path hop count, scaling the delay target.
	Hops int
	// Now is the local time of the ACK arrival.
	Now sim.Time
}

// OnAck folds one delay sample into the window and returns the new fcwnd.
//
// Below target: additive increase of swiftAI/cwnd per acked packet
// (≈ swiftAI per RTT). Above target: multiplicative decrease proportional
// to the overshoot fraction, capped by swiftMaxMDF and applied at most
// once per SRTT.
func (s *Swift) OnAck(sm Sample) float64 {
	if sm.RTT > 0 {
		if s.srtt == 0 {
			s.srtt = sm.RTT
		} else {
			s.srtt = (7*s.srtt + sm.RTT) / 8
		}
	}
	target := s.TargetDelay(sm.Hops)
	acked := sm.AckedPackets
	if acked <= 0 {
		acked = 1
	}
	if sm.FabricDelay <= target {
		if s.cwnd >= 1 {
			s.cwnd += swiftAI * float64(acked) / s.cwnd
		} else {
			s.cwnd += swiftAI * float64(acked) * s.cwnd
		}
	} else if s.canDecrease(sm.Now) {
		over := float64(sm.FabricDelay-target) / float64(sm.FabricDelay)
		factor := 1 - swiftBeta*over
		if factor < 1-swiftMaxMDF {
			factor = 1 - swiftMaxMDF
		}
		s.cwnd *= factor
		s.tLast = sm.Now
		s.decreased = true
	}
	s.cwnd = clamp(s.cwnd, swiftMinCwnd, swiftMaxCwnd)
	return s.cwnd
}

// OnRetransmitTimeout collapses the window after an RTO.
func (s *Swift) OnRetransmitTimeout() float64 {
	s.cwnd = clamp(swiftRTOCwnd, swiftMinCwnd, swiftMaxCwnd)
	return s.cwnd
}

// OnECN applies a gentle multiplicative decrease for an ECN echo (a
// supplementary congestion signal: milder than a delay overshoot, gated
// once per RTT like every decrease).
func (s *Swift) OnECN(now sim.Time) float64 {
	if s.canDecrease(now) {
		s.cwnd = clamp(s.cwnd*(1-swiftMaxMDF/2), swiftMinCwnd, swiftMaxCwnd)
		s.tLast = now
		s.decreased = true
	}
	return s.cwnd
}

// OnFastRetransmit applies a single multiplicative decrease when loss is
// detected by SACK/RACK rather than timeout.
func (s *Swift) OnFastRetransmit(now sim.Time) float64 {
	if s.canDecrease(now) {
		s.cwnd = clamp(s.cwnd*(1-swiftMaxMDF), swiftMinCwnd, swiftMaxCwnd)
		s.tLast = now
		s.decreased = true
	}
	return s.cwnd
}

func (s *Swift) canDecrease(now sim.Time) bool {
	if !s.decreased || s.srtt == 0 {
		return true
	}
	return now.Sub(s.tLast) >= s.srtt
}

// The NIC congestion window loop (§4.2 "Handling Rx NIC Congestion") runs
// AIMD on the receiver's RX buffer occupancy so that occupancy converges
// to ncwndTargetOccupancy. Its constants are the evaluation's settings.
const (
	// ncwndTargetOccupancy is the desired RX buffer occupancy fraction.
	ncwndTargetOccupancy = 0.25
	// ncwndAI is the additive increase per acked packet below target.
	ncwndAI = 1.0
	// ncwndBeta scales decrease with occupancy overshoot.
	ncwndBeta = 0.8
	// ncwndMaxMDF caps one decrease.
	ncwndMaxMDF = 0.5
	// ncwndMinCwnd and ncwndMaxCwnd bound the window in packets.
	ncwndMinCwnd, ncwndMaxCwnd = 1, 1024
)

// Ncwnd is the per-connection NIC congestion window controller.
type Ncwnd struct {
	cwnd      float64
	tLast     sim.Time
	decreased bool
	srtt      time.Duration
}

// NewNcwnd returns the controller with the given initial window; zero or
// less starts it at a quarter of its ceiling. Like NewSwift it returns a
// value.
func NewNcwnd(initial float64) Ncwnd {
	if initial <= 0 {
		initial = ncwndMaxCwnd / 4
	}
	return Ncwnd{cwnd: clamp(initial, ncwndMinCwnd, ncwndMaxCwnd)}
}

// Cwnd returns the current NIC congestion window in packets.
func (n *Ncwnd) Cwnd() float64 { return n.cwnd }

// OnAck folds one RX-buffer-occupancy sample (0..1) into the window.
func (n *Ncwnd) OnAck(occupancy float64, acked int, rtt time.Duration, now sim.Time) float64 {
	if rtt > 0 {
		if n.srtt == 0 {
			n.srtt = rtt
		} else {
			n.srtt = (7*n.srtt + rtt) / 8
		}
	}
	if acked <= 0 {
		acked = 1
	}
	if occupancy <= ncwndTargetOccupancy {
		if n.cwnd >= 1 {
			n.cwnd += ncwndAI * float64(acked) / n.cwnd
		} else {
			n.cwnd += ncwndAI * float64(acked) * n.cwnd
		}
	} else if !n.decreased || n.srtt == 0 || now.Sub(n.tLast) >= n.srtt {
		over := (occupancy - ncwndTargetOccupancy) / math.Max(occupancy, 1e-9)
		factor := 1 - ncwndBeta*over
		if factor < 1-ncwndMaxMDF {
			factor = 1 - ncwndMaxMDF
		}
		n.cwnd *= factor
		n.tLast = now
		n.decreased = true
	}
	n.cwnd = clamp(n.cwnd, ncwndMinCwnd, ncwndMaxCwnd)
	return n.cwnd
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
