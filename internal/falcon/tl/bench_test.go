package tl

import (
	"fmt"
	"testing"
	"time"

	"falcon/internal/falcon/wire"
	"falcon/internal/sim"
)

// recycleCtrl is a PDL that drops every packet back into its pool at once:
// the initiator's packets are acked by hand.
type recycleCtrl struct{ pool *wire.PacketPool }

func (r recycleCtrl) SendPacket(p *wire.Packet) { r.pool.Release(p) }

func (recycleCtrl) SendExceptionNack(wire.Space, uint32, uint64, wire.NackCode, time.Duration) {
}

// repush is a ULP that keeps its window full: each completion issues the
// next push.
type repush struct {
	b *testing.B
	c *Conn
}

func (r *repush) Complete([]byte, error) {
	if _, err := r.c.PushOp(0, 0, nil, 64, r); err != nil {
		r.b.Fatal(err)
	}
}

// BenchmarkPacketAcked times one acknowledged push at a steady window of
// live pushes: the PDL's PacketAcked for the oldest one, on an ordered
// connection also the completion horizon that finishes it, and the
// completion's re-issue. An unordered push finishes on its ACK, so the
// cost must not grow with the window on either kind of connection.
func BenchmarkPacketAcked(b *testing.B) {
	for _, ordered := range []bool{true, false} {
		for _, window := range []int{8, 128} {
			kind := "unordered"
			if ordered {
				kind = "ordered"
			}
			b.Run(fmt.Sprintf("%s/window=%d", kind, window), func(b *testing.B) {
				cfg := DefaultConfig()
				cfg.Ordered = ordered
				cfg.Backpressure = BackpressureNone
				pool := wire.NewPacketPool()
				c := NewConn(sim.New(1), 1, cfg, NewResources(DefaultResourceConfig()), recycleCtrl{pool}, nil)
				c.SetPacketPool(pool)
				ulp := &repush{b: b, c: c}
				for i := 0; i < window; i++ {
					ulp.Complete(nil, nil)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for rsn := uint64(0); rsn < uint64(b.N); rsn++ {
					c.PacketAcked(wire.SpaceRequest, uint32(rsn), rsn, wire.TypePushData)
					c.Completed(rsn + 1)
				}
				b.StopTimer()
				if got := c.OutstandingTxns(); got != window {
					b.Fatalf("%d transactions live after the run, want %d", got, window)
				}
			})
		}
	}
}
