package netsim

import (
	"falcon/internal/routing"
	"falcon/internal/sim"
)

// Topology bundles a built network with handles experiments need.
type Topology struct {
	Net    *Network
	Hosts  []*Host
	ToRs   []*Switch
	Spines []*Switch
}

// SetRoutingPolicy installs p on every switch of the topology (and any
// added later); see Network.SetRoutingPolicy. Experiments call this
// right after building a topology to pit the transport against spray or
// adaptive fabrics instead of the default flow-label ECMP.
func (t *Topology) SetRoutingPolicy(p routing.Policy) { t.Net.SetRoutingPolicy(p) }

// PointToPoint builds the paper's 1:1 experiment: two hosts joined by a
// single switch. The returned forward port (switch -> host 1) is where loss
// and reordering are injected "in the forward direction" (§6.1.1).
func PointToPoint(s *sim.Simulator, link LinkConfig) (topo *Topology, forward *Port) {
	n := New(s)
	sw := n.AddSwitch()
	h0 := n.AddHost()
	h1 := n.AddHost()
	n.AttachHost(h0, sw, link)
	fwd := n.AttachHost(h1, sw, link)
	return &Topology{Net: n, Hosts: []*Host{h0, h1}, ToRs: []*Switch{sw}}, fwd
}

// Star builds nHosts hosts on one switch — the incast topology (§6.1.2):
// many clients, one server, bottleneck at the server's downlink.
func Star(s *sim.Simulator, nHosts int, link LinkConfig) *Topology {
	n := New(s)
	sw := n.AddSwitch()
	t := &Topology{Net: n, ToRs: []*Switch{sw}}
	for i := 0; i < nHosts; i++ {
		h := n.AddHost()
		n.AttachHost(h, sw, link)
		t.Hosts = append(t.Hosts, h)
	}
	return t
}

// Clos builds a 3-stage topology: racks ToRs, each with hostsPerRack hosts,
// fully meshed to spines spine switches. Inter-rack traffic takes
// host -> ToR -> spine -> ToR -> host with the spine chosen by the routing
// policy (default: ECMP hash of the frame's FlowHash, giving `spines`
// distinct paths per flow label — the path diversity multipath load
// balancing exploits, §6.1.3; see SetRoutingPolicy for spray/adaptive).
//
// hostLink configures access links, fabricLink the ToR<->spine links. With
// fabricLink.GbpsRate*spines < hostLink.GbpsRate*hostsPerRack the fabric is
// oversubscribed.
func Clos(s *sim.Simulator, racks, hostsPerRack, spines int, hostLink, fabricLink LinkConfig) *Topology {
	n := New(s)
	t := &Topology{Net: n}
	for i := 0; i < spines; i++ {
		t.Spines = append(t.Spines, n.AddSwitch())
	}
	torUplinks := make(map[*Switch][]*Port, racks)
	for r := 0; r < racks; r++ {
		tor := n.AddSwitch()
		t.ToRs = append(t.ToRs, tor)
		var rackHosts []*Host
		for hIdx := 0; hIdx < hostsPerRack; hIdx++ {
			h := n.AddHost()
			n.AttachHost(h, tor, hostLink)
			rackHosts = append(rackHosts, h)
			t.Hosts = append(t.Hosts, h)
		}
		// Wire this ToR to every spine; each spine learns routes to
		// this rack's hosts via its downlink to the ToR.
		for _, spine := range t.Spines {
			up, down := n.ConnectSwitches(tor, spine, fabricLink)
			torUplinks[tor] = append(torUplinks[tor], up)
			for _, h := range rackHosts {
				spine.addRoute(h.ID, down)
			}
		}
	}
	// Install default routes: each ToR reaches every non-local host via
	// ECMP over its spine uplinks.
	for _, tor := range t.ToRs {
		for _, h := range t.Hosts {
			if len(tor.RouteTo(h.ID)) == 0 {
				tor.addRoute(h.ID, torUplinks[tor]...)
			}
		}
	}
	return t
}

// TwoRack is the rack-level multipath setup of §6.1.3: two racks of
// hostsPerRack hosts with `spines` paths between them.
func TwoRack(s *sim.Simulator, hostsPerRack, spines int, hostLink, fabricLink LinkConfig) *Topology {
	return Clos(s, 2, hostsPerRack, spines, hostLink, fabricLink)
}
