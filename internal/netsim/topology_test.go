package netsim

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"falcon/internal/sim"
)

// closSizes lists every Clos parameterization the experiment and workload
// drivers build: the §6.1.3 rack pair (experiments/multipath.go), the
// messenger jobs for 1–16 nodes in one rack and 32 nodes across two
// (workload/messenger.go), and the small fabrics the workload tests use.
var closSizes = []struct{ racks, hostsPerRack, spines int }{
	{2, 8, 4},  // multipath rack pair (TwoRack(8, 4))
	{1, 1, 4},  // single-node job
	{1, 2, 4},  // 2-node job
	{1, 4, 4},  // 4-node job
	{1, 8, 4},  // 8-node job
	{1, 16, 4}, // 16-node job
	{2, 16, 4}, // 32-node job, two racks
	{2, 2, 2},  // minimal multi-rack, minimal ECMP
}

// TestRouteGroupsShared checks the shared route groups on a 1024-host Clos:
// each ToR holds one group per local host plus one for its uplinks, each
// spine one per rack; every (switch, destination) set matches a model
// built from the topology's port names; and neither an append to a
// RouteTo result nor a second addRoute for one destination changes the
// set another destination shares.
func TestRouteGroupsShared(t *testing.T) {
	const racks, perRack, spines = 16, 64, 16
	link := LinkConfig{GbpsRate: 200, PropDelay: time.Microsecond}
	topo := Clos(sim.New(1), racks, perRack, spines, link, link)
	n := topo.Net
	byName := map[string]*Port{}
	for _, p := range n.Ports() {
		byName[p.name] = p
	}
	port := func(from *Switch, to string) *Port {
		p := byName[fmt.Sprintf("sw%d->%s", from.id, to)]
		if p == nil {
			t.Fatalf("no port sw%d->%s", from.id, to)
		}
		return p
	}
	want := func(sw *Switch, h *Host) []*Port {
		rack := topo.ToRs[int(h.ID)/perRack]
		switch {
		case sw == rack:
			return []*Port{port(sw, fmt.Sprintf("h%d", h.ID))}
		case slices.Contains(topo.Spines, sw):
			return []*Port{port(sw, fmt.Sprintf("sw%d", rack.id))}
		}
		var up []*Port
		for _, sp := range topo.Spines {
			up = append(up, port(sw, fmt.Sprintf("sw%d", sp.id)))
		}
		return up
	}

	for _, sw := range n.Switches() {
		groups := perRack + 1
		if slices.Contains(topo.Spines, sw) {
			groups = racks
		}
		if got := len(sw.groups) - 1; got != groups {
			t.Fatalf("switch %d holds %d route groups, want %d", sw.id, got, groups)
		}
		for _, h := range topo.Hosts {
			if got, w := sw.RouteTo(h.ID), want(sw, h); !slices.Equal(got, w) {
				t.Fatalf("switch %d -> host %d: %d ports, want %d", sw.id, h.ID, len(got), len(w))
			}
		}
		if sw.RouteTo(-1) != nil || sw.RouteTo(NodeID(len(topo.Hosts))) != nil {
			t.Fatalf("switch %d routes outside the host range", sw.id)
		}
	}

	tor := topo.ToRs[0]
	a, b := topo.Hosts[perRack].ID, topo.Hosts[2*perRack].ID
	uplinks := slices.Clone(tor.RouteTo(b))
	if &tor.RouteTo(a)[0] != &tor.RouteTo(b)[0] {
		t.Fatal("two remote hosts behind ToR 0 do not share one uplink set")
	}
	extra := newPort(n, "extra", link, topo.Spines[0])
	_ = append(tor.RouteTo(a), extra)
	if !slices.Equal(tor.RouteTo(b), uplinks) {
		t.Fatal("appending to RouteTo(a) changed host b's set")
	}
	tor.addRoute(a, extra)
	if !slices.Equal(tor.RouteTo(b), uplinks) || !slices.Equal(tor.RouteTo(a), append(slices.Clone(uplinks), extra)) {
		t.Fatal("a second addRoute for host a moved host b's set, or did not extend a's")
	}
	groups := len(tor.groups)
	tor.addRoute(b, extra)
	if len(tor.groups) != groups || &tor.RouteTo(a)[0] != &tor.RouteTo(b)[0] {
		t.Fatal("the same extended set was not shared")
	}
}

// TestClosProperties asserts, for every Clos size the experiments build:
// every host pair is reachable, hop counts match the 3-stage expectation
// (1 switch intra-rack, 3 inter-rack), and ECMP spreads distinct flow
// labels across more than one ToR uplink.
func TestClosProperties(t *testing.T) {
	link := LinkConfig{GbpsRate: 200, PropDelay: time.Microsecond}
	for _, sz := range closSizes {
		sz := sz
		t.Run(fmt.Sprintf("racks%d_hosts%d_spines%d", sz.racks, sz.hostsPerRack, sz.spines), func(t *testing.T) {
			s := sim.New(1)
			topo := Clos(s, sz.racks, sz.hostsPerRack, sz.spines, link, link)
			nHosts := sz.racks * sz.hostsPerRack
			if len(topo.Hosts) != nHosts {
				t.Fatalf("built %d hosts, want %d", len(topo.Hosts), nHosts)
			}

			// Record (src -> hops) for every delivery at every host.
			type arrival struct {
				src  NodeID
				hops int
			}
			got := make(map[NodeID][]arrival)
			for _, h := range topo.Hosts {
				h := h
				h.SetHandler(HandlerFunc(func(f *Frame) {
					got[h.ID] = append(got[h.ID], arrival{f.Src, f.Hops})
				}))
			}

			// Reachability + hop counts: one frame per ordered pair.
			for _, src := range topo.Hosts {
				for _, dst := range topo.Hosts {
					if src == dst {
						continue
					}
					f := src.NewFrame()
					f.Dst = dst.ID
					f.FlowHash = uint64(src.ID)<<16 | uint64(dst.ID)
					f.Size = 100
					src.Send(f)
				}
			}
			s.Run()
			rack := func(id NodeID) int { return int(id) / sz.hostsPerRack }
			for _, dst := range topo.Hosts {
				arrivals := got[dst.ID]
				if len(arrivals) != nHosts-1 {
					t.Fatalf("host %d received %d frames, want %d (unreachable pair)",
						dst.ID, len(arrivals), nHosts-1)
				}
				seen := make(map[NodeID]bool)
				for _, a := range arrivals {
					seen[a.src] = true
					want := 1 // host -> ToR -> host
					if rack(a.src) != rack(dst.ID) {
						want = 3 // host -> ToR -> spine -> ToR -> host
					}
					if a.hops != want {
						t.Fatalf("frame %d->%d took %d switch hops, want %d",
							a.src, dst.ID, a.hops, want)
					}
				}
				if len(seen) != nHosts-1 {
					t.Fatalf("host %d heard from %d distinct sources, want %d",
						dst.ID, len(seen), nHosts-1)
				}
			}

			// ECMP spread: with >1 rack and >1 spine, distinct flow labels
			// from one inter-rack pair must use more than one ToR uplink.
			if sz.racks > 1 && sz.spines > 1 {
				src, dst := topo.Hosts[0], topo.Hosts[sz.hostsPerRack]
				uplinks := topo.ToRs[0].RouteTo(dst.ID)
				if len(uplinks) != sz.spines {
					t.Fatalf("ToR 0 has %d uplinks toward host %d, want %d",
						len(uplinks), dst.ID, sz.spines)
				}
				before := make([]uint64, len(uplinks))
				for i, p := range uplinks {
					before[i] = p.Stats.TxFrames
				}
				for label := 0; label < 64; label++ {
					f := src.NewFrame()
					f.Dst = dst.ID
					f.FlowHash = uint64(label) * 0x9e3779b97f4a7c15
					f.Size = 100
					src.Send(f)
				}
				s.Run()
				used := 0
				for i, p := range uplinks {
					if p.Stats.TxFrames > before[i] {
						used++
					}
				}
				if used <= 1 {
					t.Fatalf("64 distinct flow labels used only %d of %d uplinks", used, len(uplinks))
				}
			}
		})
	}
}
