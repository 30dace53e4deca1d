package chaos

import (
	"time"

	"falcon/internal/falcon/tl"
	"falcon/internal/falcon/wire"
)

// RNRValve interposes on a Falcon target ULP handler to model a receiver
// that stops being ready (application stalled, receive buffers exhausted):
// while stalled every arriving transaction is answered with an RNR verdict
// — the TL turns it into an RNR NACK with the valve's retry delay — and
// the initiator's RNR retry loop carries the transaction until the valve
// reopens. Install it with Endpoint.SetTarget, wrapping the QP's own
// handler (rdma.QP.Target), and list it in Targets.Stallers so storm
// plans drive it like any other fault.
type RNRValve struct {
	inner   tl.TargetHandler
	delay   time.Duration
	stalled bool
	// Stalls counts transactions turned away while the valve was closed.
	Stalls uint64
}

// NewRNRValve wraps inner; delay is the RetryDelay carried in each RNR
// NACK while stalled.
func NewRNRValve(inner tl.TargetHandler, delay time.Duration) *RNRValve {
	return &RNRValve{inner: inner, delay: delay}
}

// SetStalled closes (true) or reopens (false) the valve.
func (v *RNRValve) SetStalled(stalled bool) { v.stalled = stalled }

// HandlePush implements tl.TargetHandler.
func (v *RNRValve) HandlePush(rsn uint64, p *wire.Packet) tl.TargetVerdict {
	if v.stalled {
		v.Stalls++
		return tl.TargetVerdict{Kind: tl.TargetRNR, RetryDelay: v.delay}
	}
	return v.inner.HandlePush(rsn, p)
}

// HandlePull implements tl.TargetHandler.
func (v *RNRValve) HandlePull(rsn uint64, p *wire.Packet) ([]byte, uint32, tl.TargetVerdict) {
	if v.stalled {
		v.Stalls++
		return nil, 0, tl.TargetVerdict{Kind: tl.TargetRNR, RetryDelay: v.delay}
	}
	return v.inner.HandlePull(rsn, p)
}
