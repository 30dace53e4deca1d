package experiments

import (
	"time"

	"falcon/internal/falcon/pdl"
	"falcon/internal/netsim"
	"falcon/internal/rdma"
	"falcon/internal/roce"
	"falcon/internal/sim"
	"falcon/internal/stats"
	"falcon/internal/telemetry"
	"falcon/internal/workload"
)

// Fig10 reproduces "Falcon and RoCE goodput under losses for different
// ops" (§6.1.1): a 1:1 experiment with 8KB ops and random drops of the
// named packet class, sweeping the drop percentage. Falcon holds goodput;
// RoCE-SR helps only Writes and Read Responses; RoCE-GBN collapses.
//
// With o.Tel set, every Falcon cell exports its PDL loss-recovery
// counters (retransmit causes, ACK coalescing, NACK codes) and the
// representative Write/1%-drop cell additionally records a
// cwnd-and-retransmit time series — the loss-recovery trace behind the
// figure.
func Fig10(o Options, runFor time.Duration) *Table {
	t := &Table{
		Title:   "Figure 10: goodput (Gbps) under random drops, 8KB ops, 200G link",
		Columns: []string{"op", "drop%", "Falcon", "RoCE-SR", "RoCE-GBN"},
	}
	const gbps = 200
	drops := []float64{0, 0.1, 0.5, 1, 2}
	type sub struct {
		name string
		kind opKind
	}
	subs := []sub{
		{"Write", opWrite},
		{"Send", opSend},
		{"ReadResp", opRead}, // responses dropped on the reverse path
		{"ReadReq", opRead},  // requests dropped on the forward path
	}
	for _, sb := range subs {
		for _, drop := range drops {
			falcon := func() float64 {
				p := newFalconP2P(o, 1, gbps, multipathConn())
				applyDrop(sb.name, p.forward, p.reverse, drop)
				if tel := o.Tel; tel != nil {
					prefix := "fig10/" + sb.name + "/drop" + f1(drop)
					reg := tel.Registry()
					telemetry.CollectPDL(reg, prefix, p.epA.PDL())
					telemetry.CollectTL(reg, prefix, p.epA.TL())
					telemetry.CollectPort(reg, prefix+"/fwd", p.forward)
					if sb.name == "Write" && drop == 1 {
						sp := tel.Sampler("write_drop1", p.sim, 20*time.Microsecond)
						telemetry.TrackPDL(sp, "conn", p.epA.PDL())
						telemetry.TrackPort(sp, "fwd", p.forward)
						sp.Start(sim.Time(runFor))
					}
				}
				return p.goodput(sb.kind, 8192, 48, runFor)
			}()
			sr := func() float64 {
				cfg := roce.DefaultConfig()
				cfg.Mode = roce.SR
				p := newRoceP2P(o, 1, gbps, cfg)
				applyDrop(sb.name, p.forward, p.reverse, drop)
				return p.goodput(sb.kind, 8192, 48, runFor)
			}()
			gbn := func() float64 {
				cfg := roce.DefaultConfig()
				cfg.Mode = roce.GBN
				p := newRoceP2P(o, 1, gbps, cfg)
				applyDrop(sb.name, p.forward, p.reverse, drop)
				return p.goodput(sb.kind, 8192, 48, runFor)
			}()
			t.Rows = append(t.Rows, []string{sb.name, f1(drop), f1(falcon), f1(sr), f1(gbn)})
		}
	}
	return t
}

// applyDrop impairs the right direction for the packet class under test.
// Writes, Sends and Read Requests travel client→server (forward port);
// Read Responses travel server→client (reverse port). Note the fig 10
// convention: "ReadResp" drops the responses of a read workload,
// "ReadReq" drops its requests.
func applyDrop(name string, fwd, rev *netsim.Port, pct float64) {
	if name == "ReadResp" {
		rev.SetDropProb(pct / 100)
		return
	}
	fwd.SetDropProb(pct / 100)
}

// Fig11a reproduces "Falcon and RoCE goodput when writes are reordered":
// the same 1:1 experiment with the switch delaying a fraction of packets
// instead of dropping them.
func Fig11a(o Options, runFor time.Duration) *Table {
	t := &Table{
		Title:   "Figure 11a: goodput (Gbps) under reordering, 8KB writes, 200G link",
		Columns: []string{"reorder extent (us)", "Falcon", "RoCE-SR", "RoCE-GBN"},
	}
	const gbps = 200
	for _, extent := range []time.Duration{0, 5 * time.Microsecond, 10 * time.Microsecond, 20 * time.Microsecond, 40 * time.Microsecond} {
		falcon := func() float64 {
			p := newFalconP2P(o, 1, gbps, multipathConn())
			p.forward.SetReorder(0.1, extent)
			return p.goodput(opWrite, 8192, 48, runFor)
		}()
		sr := func() float64 {
			cfg := roce.DefaultConfig()
			cfg.Mode = roce.SR
			p := newRoceP2P(o, 1, gbps, cfg)
			p.forward.SetReorder(0.1, extent)
			return p.goodput(opWrite, 8192, 48, runFor)
		}()
		gbn := func() float64 {
			cfg := roce.DefaultConfig()
			cfg.Mode = roce.GBN
			p := newRoceP2P(o, 1, gbps, cfg)
			p.forward.SetReorder(0.1, extent)
			return p.goodput(opWrite, 8192, 48, runFor)
		}()
		t.Rows = append(t.Rows, []string{f1(extent.Seconds() * 1e6), f1(falcon), f1(sr), f1(gbn)})
	}
	return t
}

// Fig11b reproduces "role of RACK-TLP under losses": 128KB writes with
// Poisson arrivals, comparing RACK-TLP against the OOO-distance heuristic
// that shipped in 200G Falcon.
func Fig11b(o Options, runFor time.Duration) *Table {
	t := &Table{
		Title:   "Figure 11b: RACK-TLP vs OOO-distance goodput (Gbps), 128KB Poisson writes",
		Columns: []string{"drop%", "RACK-TLP", "OOO-D"},
	}
	run := func(recovery pdl.RecoveryMode, drop float64) float64 {
		cfg := multipathConn()
		cfg.PDL.Recovery = recovery
		p := newFalconP2P(o, 3, 200, cfg)
		p.forward.SetDropProb(drop / 100)
		var delivered uint64
		const opBytes = 128 << 10
		// Poisson at ~60% of line rate.
		rate := 0.6 * 200e9 / 8 / opBytes
		gen := workload.NewPoisson(p.sim, p.sim.Rand(), rate, 1<<30, func() {
			p.qa.Write(0, 0, nil, opBytes, func(c rdma.Completion) {
				if c.Err == nil {
					delivered += opBytes
				}
			})
		})
		gen.Start()
		p.sim.RunUntil(sim.Time(runFor))
		return stats.Gbps(delivered, runFor)
	}
	for _, drop := range []float64{0.1, 0.5, 1, 2, 4} {
		t.Rows = append(t.Rows, []string{
			f1(drop),
			f1(run(pdl.RecoveryRackTLP, drop)),
			f1(run(pdl.RecoveryOOODistance, drop)),
		})
	}
	return t
}

// Fig12 reproduces "RoCE goodput under losses, in three different modes":
// 16KB writes, GBN vs SR vs AR. AR recovers only by timeout and performs
// worst.
func Fig12(o Options, runFor time.Duration) *Table {
	t := &Table{
		Title:   "Figure 12: RoCE modes goodput (Gbps) under drops, 16KB writes",
		Columns: []string{"drop%", "RoCE-GBN", "RoCE-SR", "RoCE-AR"},
	}
	run := func(mode roce.Mode, drop float64) float64 {
		cfg := roce.DefaultConfig()
		cfg.Mode = mode
		p := newRoceP2P(o, 5, 200, cfg)
		p.forward.SetDropProb(drop / 100)
		return p.goodput(opWrite, 16<<10, 48, runFor)
	}
	for _, drop := range []float64{0, 0.1, 0.5, 1, 2} {
		t.Rows = append(t.Rows, []string{
			f1(drop),
			f1(run(roce.GBN, drop)),
			f1(run(roce.SR, drop)),
			f1(run(roce.AR, drop)),
		})
	}
	return t
}
