package experiments

import (
	"sync/atomic"
	"time"

	"falcon/internal/netsim"
	"falcon/internal/routing"
	"falcon/internal/sim"
	"falcon/internal/swtransport"
	"falcon/internal/telemetry"
	"falcon/internal/workload"
)

// Options is everything that configures one run of a figure. The zero
// value is a full-window, uninstrumented run over ECMP fabrics with the default storm seeds.
//
// Figures build every simulator and fabric through the helpers below, so
// each setting reaches all of them and nothing else: there is no
// process-wide default to set or restore, and figures with different
// options may run side by side.
type Options struct {
	// Quick selects the shorter measurement windows.
	Quick bool
	// Tel, when non-nil, receives the figure's metrics and time series.
	// Telemetry only observes, so the table is the same either way.
	Tel *telemetry.Suite
	// Policy is the uplink routing policy of every fabric (nil = ECMP).
	// Figures that compare policies install their own on top.
	Policy routing.Policy
	// StormSeed, when non-zero, narrows the storm campaigns to this one
	// seed instead of the default set.
	StormSeed int64
	// events, set by the runner, totals the events delivered by every
	// simulator the figure builds.
	events *atomic.Uint64
}

// window returns the measurement duration for a full or a quick run.
func (o Options) window(full, quick time.Duration) time.Duration {
	if o.Quick {
		return quick
	}
	return full
}

// newSim returns a fresh seeded simulator for one run of the figure.
func (o Options) newSim(seed int64) *sim.Simulator {
	s := sim.New(seed)
	s.CountInto(o.events)
	return s
}

// routed installs the fabric policy on a freshly built topology.
func (o Options) routed(t *netsim.Topology) *netsim.Topology {
	if o.Policy != nil {
		t.SetRoutingPolicy(o.Policy)
	}
	return t
}

func (o Options) pointToPoint(s *sim.Simulator, link netsim.LinkConfig) (*netsim.Topology, *netsim.Port) {
	t, fwd := netsim.PointToPoint(s, link)
	return o.routed(t), fwd
}

func (o Options) star(s *sim.Simulator, hosts int, link netsim.LinkConfig) *netsim.Topology {
	return o.routed(netsim.Star(s, hosts, link))
}

func (o Options) clos(s *sim.Simulator, racks, hostsPerRack, spines int, host, fabric netsim.LinkConfig) *netsim.Topology {
	return o.routed(netsim.Clos(s, racks, hostsPerRack, spines, host, fabric))
}

func (o Options) twoRack(s *sim.Simulator, hostsPerRack, spines int, host, fabric netsim.LinkConfig) *netsim.Topology {
	return o.routed(netsim.TwoRack(s, hostsPerRack, spines, host, fabric))
}

// job builds a message-passing job on a routed Clos (workload.BuildFalconJob
// or, without falcon, BuildSWJob over TCP).
func (o Options) job(s *sim.Simulator, falcon bool, nodes, ranksPerNode, ranks int) workload.Messenger {
	var m workload.Messenger
	var t *netsim.Topology
	if falcon {
		m, t = workload.BuildFalconJob(s, nodes, ranksPerNode, ranks)
	} else {
		m, t = workload.BuildSWJob(s, nodes, ranksPerNode, ranks, swtransport.TCP())
	}
	o.routed(t)
	return m
}

// stormSeeds returns the storm campaigns' seeds: StormSeed when set, else
// the committed default trio.
func (o Options) stormSeeds() []int64 {
	if o.StormSeed != 0 {
		return []int64{o.StormSeed}
	}
	return []int64{71, 72, 73}
}
