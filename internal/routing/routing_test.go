package routing_test

// Policy property tests. External package on purpose: the fabric-level
// properties drive real netsim Clos topologies (netsim imports routing,
// so an internal test would cycle).

import (
	"fmt"
	"testing"
	"time"

	"falcon/internal/netsim"
	"falcon/internal/routing"
	"falcon/internal/sim"
)

// closSizes mirrors the Clos parameterizations the experiment and
// workload drivers build (internal/netsim topology tests keep the same
// list): the policy properties below must hold at every size.
var closSizes = []struct{ racks, hostsPerRack, spines int }{
	{2, 8, 4},
	{1, 1, 4},
	{1, 2, 4},
	{1, 4, 4},
	{1, 8, 4},
	{1, 16, 4},
	{2, 16, 4},
	{2, 2, 2},
}

var testLink = netsim.LinkConfig{GbpsRate: 200, PropDelay: time.Microsecond}

// lcg is a tiny deterministic generator for synthetic queue vectors —
// the global-rand audit bans math/rand's package-level functions and a
// seeded source would be overkill for a property sweep.
type lcg uint64

func (g *lcg) next() uint64 {
	*g = *g*6364136223846793005 + 1442695040888963407
	return uint64(*g)
}

// queueVec adapts a plain depth slice to routing.QueueDepths.
type queueVec []int

func (q queueVec) QueuedBytes(i int) int { return q[i] }

// TestECMPMatchesLegacyFormula pins ECMP.Select to the exact selection
// netsim's switches hard-coded before routing became pluggable:
// mix64(flowHash ^ salt ^ dst<<32 ^ src) % n. Any drift here would break
// the byte-determinism contract (the 33 sweep trace hashes and every
// committed falconbench cell assume this mapping).
func TestECMPMatchesLegacyFormula(t *testing.T) {
	legacy := func(k routing.Key, n int) int {
		x := k.FlowHash ^ k.Salt ^ k.Dst<<32 ^ k.Src
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		return int(x % uint64(n))
	}
	var g lcg
	var e routing.ECMP
	for n := 2; n <= 9; n++ {
		for trial := 0; trial < 2000; trial++ {
			k := routing.Key{FlowHash: g.next(), Salt: g.next(), Src: g.next() % 64, Dst: g.next() % 64}
			if got, want := e.Select(k, n, nil, nil), legacy(k, n); got != want {
				t.Fatalf("ECMP.Select(%+v, n=%d) = %d, legacy formula gives %d", k, n, got, want)
			}
		}
	}
}

// TestSprayExactRoundRobin asserts the spray guarantee at the policy
// level for every uplink-set size the experiments build: over c*n
// selections the counter hands each candidate exactly c frames.
func TestSprayExactRoundRobin(t *testing.T) {
	var sp routing.Spray
	for _, sz := range closSizes {
		n := sz.spines
		const c = 57
		var state uint64
		counts := make([]int, n)
		for i := 0; i < c*n; i++ {
			idx := sp.Select(routing.Key{}, n, &state, nil)
			if idx < 0 || idx >= n {
				t.Fatalf("spray returned out-of-range index %d (n=%d)", idx, n)
			}
			counts[idx]++
		}
		for i, got := range counts {
			if got != c {
				t.Fatalf("n=%d: uplink %d carried %d of %d frames, want exactly %d", n, i, got, c*n, c)
			}
		}
	}
}

// TestAdaptiveNeverPicksMoreQueued asserts the adaptive invariant over
// randomized queue vectors at every experiment uplink-set size: the
// selected candidate's depth is <= every other candidate's, and ties
// break to the lowest index.
func TestAdaptiveNeverPicksMoreQueued(t *testing.T) {
	var ad routing.Adaptive
	var g lcg
	for _, sz := range closSizes {
		n := sz.spines
		for trial := 0; trial < 5000; trial++ {
			q := make(queueVec, n)
			for i := range q {
				// Small modulus so ties are common and the tie-break rule
				// is actually exercised.
				q[i] = int(g.next() % 8)
			}
			idx := ad.Select(routing.Key{}, n, nil, q)
			for i, d := range q {
				if d < q[idx] {
					t.Fatalf("n=%d q=%v: picked %d (depth %d) over strictly-less-queued %d (depth %d)",
						n, q, idx, q[idx], i, d)
				}
				if d == q[idx] && i < idx {
					t.Fatalf("n=%d q=%v: picked %d, tie must break to lowest index %d", n, q, idx, i)
				}
			}
		}
	}
}

// crossTraffic sends frames host 0 -> the first host of the last rack
// (or the last host of rack 0 when single-rack) with distinct flow
// labels, and returns the sender's ToR uplink ports toward that
// destination.
func crossTraffic(s *sim.Simulator, topo *netsim.Topology, frames int) []*netsim.Port {
	for _, h := range topo.Hosts {
		h.SetHandler(netsim.HandlerFunc(func(*netsim.Frame) {}))
	}
	src := topo.Hosts[0]
	dst := topo.Hosts[len(topo.Hosts)-1]
	for i := 0; i < frames; i++ {
		f := src.NewFrame()
		f.Dst = dst.ID
		f.FlowHash = uint64(i)*0x9e37 + 11
		f.Size = 1500
		src.Send(f)
	}
	return topo.ToRs[0].RouteTo(dst.ID)
}

// TestSprayFabricExactSpread runs the round-robin guarantee through a
// real fabric at every multi-rack size: c*spines cross-rack frames leave
// the sending ToR with exactly c frames per spine uplink.
func TestSprayFabricExactSpread(t *testing.T) {
	for _, sz := range closSizes {
		if sz.racks < 2 {
			continue // single-rack traffic never crosses an ECMP set
		}
		sz := sz
		t.Run(fmt.Sprintf("racks%d_hosts%d_spines%d", sz.racks, sz.hostsPerRack, sz.spines), func(t *testing.T) {
			s := sim.New(1)
			topo := netsim.Clos(s, sz.racks, sz.hostsPerRack, sz.spines, testLink, testLink)
			topo.SetRoutingPolicy(routing.Spray{})
			const c = 40
			uplinks := crossTraffic(s, topo, c*sz.spines)
			s.Run()
			if len(uplinks) != sz.spines {
				t.Fatalf("route set has %d uplinks, want %d", len(uplinks), sz.spines)
			}
			for i, p := range uplinks {
				if p.Stats.TxFrames != c {
					t.Fatalf("uplink %d carried %d frames, want exactly %d", i, p.Stats.TxFrames, c)
				}
			}
		})
	}
}

// TestAdaptiveFabricAvoidsSlowUplink checks the policy end to end: on a
// fabric with one uplink serialized 8x slower (its queue backs up),
// adaptive must route the slow uplink strictly less than its fair share
// and less than the busiest healthy uplink, at every multi-rack size.
// (Healthy high-index uplinks may legitimately carry little: ties break
// to the lowest index, so an uncongested fabric concentrates low.)
func TestAdaptiveFabricAvoidsSlowUplink(t *testing.T) {
	for _, sz := range closSizes {
		if sz.racks < 2 {
			continue
		}
		sz := sz
		t.Run(fmt.Sprintf("racks%d_hosts%d_spines%d", sz.racks, sz.hostsPerRack, sz.spines), func(t *testing.T) {
			s := sim.New(1)
			topo := netsim.Clos(s, sz.racks, sz.hostsPerRack, sz.spines, testLink, testLink)
			topo.SetRoutingPolicy(routing.Adaptive{})
			dst := topo.Hosts[len(topo.Hosts)-1]
			uplinks := topo.ToRs[0].RouteTo(dst.ID)
			uplinks[0].SetRateGbps(testLink.GbpsRate / 8)
			frames := 64 * sz.spines
			crossTraffic(s, topo, frames)
			s.Run()
			slow := uplinks[0].Stats.TxFrames
			var healthyMax uint64
			for _, p := range uplinks[1:] {
				if p.Stats.TxFrames > healthyMax {
					healthyMax = p.Stats.TxFrames
				}
			}
			fair := uint64(frames / sz.spines)
			if slow >= fair {
				t.Fatalf("slow uplink carried %d frames, >= fair share %d — adaptive did not avoid the backlog", slow, fair)
			}
			if slow >= healthyMax {
				t.Fatalf("slow uplink carried %d frames, busiest healthy only %d", slow, healthyMax)
			}
		})
	}
}
