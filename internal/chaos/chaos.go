// Package chaos schedules faults: an impairment a figure or test injects
// is an Event, and Apply puts it on the virtual clock. Two faults are
// scheduled elsewhere, as closures: the sweep scenario's link rate degrade
// (DegradeGbps in internal/testkit/sweep.go) and Fig 14's PCIe downgrade
// and restore (Fig14 in internal/experiments/congestion.go). Storm
// campaigns compose fabric gray failures (flap / slow / correlated outage)
// with endpoint-level faults — host pause and crash-restart (connection
// state surviving or torn down per plan), NIC-port blackhole and
// packet-corruption windows, and receiver-not-ready stalls that drive
// sustained RNR retry; figRouting and figGrayFailure hand Apply a fixed
// event list of their own.
//
// Determinism contract: a storm is a Plan — a pure value generated from a
// seed by its own rand source, independent of simulator state — and Apply
// schedules every fault as a typed sim.Action on the virtual clock
// (no capture closures; the package is covered by the TestNetsimClosureFree
// lint). Two same-seed campaigns therefore fail, corrupt, stall and
// recover at byte-identical (time, seq) points: replaying a storm is
// re-running its seed.
//
// On top of the fault actions sit the measurement pieces: Envelope samples
// cumulative delivered bytes on a fixed virtual-clock grid and derives the
// recovery envelope (time from fault clear until trailing-median goodput
// re-enters a percentage band of the pre-fault baseline), and Audit closes
// the frame-conservation ledger over the whole fabric — every frame a host
// sent is delivered or attributed to a named drop counter, so no storm can
// leak frames. DESIGN.md §14 describes the subsystem; the figStorm /
// figEndpointFault experiments and `falconbench -storm` drive it.
package chaos

import (
	"math/rand"
	"time"

	"falcon/internal/netsim"
	"falcon/internal/sim"
)

// Crasher tears down the connection state of one machine (core.Node for
// Falcon). A nil / absent Crasher list disables crash-teardown faults —
// the transport-agnostic storms (RoCE head-to-heads) run without them.
type Crasher interface {
	Crash() int
}

// Kind enumerates the fault types a storm composes.
type Kind int

const (
	// KindFlap bounces one uplink through Cycles down/up cycles, each phase
	// For/(2·Cycles) long; the port is up again when the window closes.
	KindFlap Kind = iota
	// KindSlow degrades one uplink's rate to Gbps without downing it — the
	// classic gray failure: no down drops, but serialization stretches and
	// the queue backs up. The plan's RestoreGbps returns at At+For; For 0
	// leaves the port degraded.
	KindSlow
	// KindOutage downs two adjacent uplinks (Target, Target+1) at one
	// instant and raises both at another: the correlated failure a ToR
	// power event causes.
	KindOutage
	// KindBlackhole downs one host's access uplink: the NIC port silently
	// eats every egress frame for the window.
	KindBlackhole
	// KindCorrupt opens a packet-corruption window on one uplink.
	KindCorrupt
	// KindPause freezes one host (no tx, no rx) for the window.
	KindPause
	// KindCrash freezes one host and, when the plan says the crash does
	// not preserve connection state, tears its connections down at the
	// crash instant; the host restarts (unpauses) when the window closes.
	KindCrash
	// KindRNRStall closes one receiver's RNR valve for the window.
	KindRNRStall
	numKinds
)

// String names the kind as the experiment tables print it.
func (k Kind) String() string {
	switch k {
	case KindFlap:
		return "flap"
	case KindSlow:
		return "slow"
	case KindOutage:
		return "outage"
	case KindBlackhole:
		return "blackhole"
	case KindCorrupt:
		return "corrupt"
	case KindPause:
		return "pause"
	case KindCrash:
		return "crash"
	case KindRNRStall:
		return "rnr_stall"
	}
	return "unknown"
}

// Event is one scheduled fault of a storm plan: Kind applied to the
// Target'th entry of its kind's target list at At, cleared For later.
type Event struct {
	Kind   Kind
	Target int
	At     sim.Time
	For    time.Duration
	// Prob is the corruption probability (KindCorrupt).
	Prob float64
	// Gbps is the degraded rate (KindSlow); the restore rate is the
	// plan's RestoreGbps.
	Gbps float64
	// Cycles is the down/up cycle count (KindFlap).
	Cycles int
	// Teardown marks a crash that does not preserve connection state.
	Teardown bool
}

// Clear returns the virtual time the fault is restored.
func (e Event) Clear() sim.Time { return e.At.Add(e.For) }

// Spec bounds a storm: how many fault events to draw, the window inside
// which every fault begins and clears, and the size of each target class
// (a zero count disables that class's kinds, so the same generator serves
// transport-agnostic storms — no crashers, no stallers — and the
// Falcon-only endpoint-fault campaigns).
type Spec struct {
	Events     int
	Start, End sim.Time
	// Uplinks is the size of the equal-cost uplink group fabric faults
	// (flap/slow/outage/corrupt) target.
	Uplinks int
	// HostPorts is the number of host access uplinks blackholes target.
	HostPorts int
	// Hosts is the number of pausable hosts.
	Hosts int
	// Crashers is the number of crashable nodes (index-aligned with the
	// first Crashers hosts); 0 disables KindCrash.
	Crashers int
	// Stallers is the number of RNR valves; 0 disables KindRNRStall.
	Stallers int
	// Teardown makes crashes tear down connection state.
	Teardown bool
	// RestoreGbps is the healthy uplink rate KindSlow restores.
	RestoreGbps float64
}

// Plan is a fully materialized storm: a pure value derived from its seed,
// independent of any simulator. Applying the same plan to two same-seed
// simulations reproduces the storm byte-identically.
type Plan struct {
	Seed int64
	// RestoreGbps is the healthy rate Slow events recover to (from the
	// generating spec).
	RestoreGbps float64
	Events      []Event
}

// kindTargets returns how many targets the spec offers kind, 0 = disabled.
func (sp Spec) kindTargets(k Kind) int {
	switch k {
	case KindFlap, KindSlow, KindCorrupt:
		return sp.Uplinks
	case KindOutage:
		if sp.Uplinks < 2 {
			return 0
		}
		return sp.Uplinks - 1 // outage downs uplinks [t, t+1]
	case KindBlackhole:
		return sp.HostPorts
	case KindPause:
		return sp.Hosts
	case KindCrash:
		return sp.Crashers
	case KindRNRStall:
		return sp.Stallers
	}
	return 0
}

// Generate draws a storm plan from the seed. The generator owns its rand
// source — simulator state never leaks into the plan — so a (seed, spec)
// pair always yields the identical event list. Fault windows are drawn
// inside [Start, End]: each fault lasts between 1/16 and 1/8 of the spec
// window and both edges land inside it, so the post-storm tail of the run
// is guaranteed fault-free for recovery measurement.
func Generate(seed int64, sp Spec) Plan {
	rng := rand.New(rand.NewSource(seed))
	var kinds []Kind
	for k := Kind(0); k < numKinds; k++ {
		if sp.kindTargets(k) > 0 {
			kinds = append(kinds, k)
		}
	}
	p := Plan{Seed: seed, RestoreGbps: sp.RestoreGbps}
	if len(kinds) == 0 || sp.Events <= 0 || sp.End <= sp.Start {
		return p
	}
	window := sp.End.Sub(sp.Start)
	for i := 0; i < sp.Events; i++ {
		k := kinds[rng.Intn(len(kinds))]
		dur := window/16 + time.Duration(rng.Int63n(int64(window/16)+1))
		at := sp.Start.Add(time.Duration(rng.Int63n(int64(window-dur) + 1)))
		ev := Event{
			Kind:   k,
			Target: rng.Intn(sp.kindTargets(k)),
			At:     at,
			For:    dur,
		}
		switch k {
		case KindFlap:
			ev.Cycles = 1 + rng.Intn(2)
		case KindSlow:
			ev.Gbps = sp.RestoreGbps / float64(4+rng.Intn(4)) // 1/4 .. 1/7 of healthy
		case KindCorrupt:
			ev.Prob = 0.05 + rng.Float64()*0.20
		case KindCrash:
			ev.Teardown = sp.Teardown
		}
		p.Events = append(p.Events, ev)
	}
	return p
}

// FaultStart returns the earliest fault edge, or 0 for an empty plan.
func (p Plan) FaultStart() sim.Time {
	var first sim.Time
	for i, e := range p.Events {
		if i == 0 || e.At < first {
			first = e.At
		}
	}
	return first
}

// FaultClear returns the latest restore edge, or 0 for an empty plan.
func (p Plan) FaultClear() sim.Time {
	var last sim.Time
	for _, e := range p.Events {
		if c := e.Clear(); c > last {
			last = c
		}
	}
	return last
}

// Targets binds a plan's target indices to one simulation's objects.
// Slices may be shorter than the generating spec's counts only if the
// plan was generated against matching counts — Apply panics on an
// out-of-range index rather than silently skewing the storm. Crashers is
// index-aligned with Hosts (crasher i owns host i); Stallers with the
// receiver they gate.
//
// Port faults nest: a port is down while any fault holds it
// (netsim.Port.SetDown, drops counted in DownDrops), a rate change applies
// to frames enqueued after it, and a corruption window opens and closes
// with SetCorruptProb. A paused host neither transmits nor receives, with
// drops counted at the edge.
type Targets struct {
	Uplinks   []*netsim.Port
	HostPorts []*netsim.Port
	Hosts     []*netsim.Host
	Crashers  []Crasher
	Stallers  []*RNRValve
}

// faultEvent is the typed action behind every fault edge except a flap's:
// one allocation per (event, edge) at Apply time, zero at fire time. clear
// distinguishes the restore edge.
type faultEvent struct {
	kind     Kind
	clear    bool
	host     *netsim.Host
	crash    Crasher
	port     *netsim.Port
	pair     *netsim.Port // KindOutage's second uplink
	stall    *RNRValve
	prob     float64
	gbps     float64 // KindSlow: the rate this edge applies
	teardown bool
}

// RunAction implements sim.Action.
func (e *faultEvent) RunAction() {
	switch e.kind {
	case KindSlow:
		e.port.SetRateGbps(e.gbps)
	case KindOutage:
		e.port.SetDown(!e.clear)
		e.pair.SetDown(!e.clear)
	case KindBlackhole:
		e.port.SetDown(!e.clear)
	case KindCorrupt:
		if e.clear {
			e.port.SetCorruptProb(0)
		} else {
			e.port.SetCorruptProb(e.prob)
		}
	case KindPause:
		e.host.SetPaused(!e.clear)
	case KindCrash:
		if e.clear {
			// Restart: the machine thaws. Torn-down connections stay
			// gone — stale in-flight packets are dropped at the edge.
			e.host.SetPaused(false)
			return
		}
		e.host.SetPaused(true)
		if e.teardown && e.crash != nil {
			e.crash.Crash()
		}
	case KindRNRStall:
		e.stall.SetStalled(!e.clear)
	}
}

// flapEvent is the typed action behind KindFlap: each firing toggles the
// port and re-arms itself one phase later until its cycles are spent. The
// next edge is scheduled only when the current one fires, so a flap holds
// one queue entry at a time.
type flapEvent struct {
	s      *sim.Simulator
	port   *netsim.Port
	phase  time.Duration
	cycles int  // down/up pairs still to run, including the current one
	down   bool // true while the port is held down
}

// RunAction implements sim.Action.
func (e *flapEvent) RunAction() {
	e.down = !e.down
	e.port.SetDown(e.down)
	if !e.down {
		e.cycles--
		if e.cycles == 0 {
			return
		}
	}
	e.s.AtAction(e.s.Now().Add(e.phase), e)
}

// Apply schedules the plan onto one simulation as typed actions, in event
// order: a flap as one self-re-arming action, every other kind as its
// impairment edge at At and its restore edge at At+For (a Slow with For 0
// is never restored). Faults on one port nest through its down depth.
// Apply must be called before the simulator passes the plan's first edge.
func Apply(s *sim.Simulator, t Targets, p Plan) {
	for _, ev := range p.Events {
		if ev.Kind == KindFlap {
			phase := ev.For / time.Duration(2*ev.Cycles)
			s.AtAction(ev.At, &flapEvent{s: s, port: t.Uplinks[ev.Target], phase: phase, cycles: ev.Cycles})
			continue
		}
		apply := &faultEvent{kind: ev.Kind, prob: ev.Prob, gbps: ev.Gbps, teardown: ev.Teardown}
		switch ev.Kind {
		case KindSlow, KindCorrupt:
			apply.port = t.Uplinks[ev.Target]
		case KindOutage:
			apply.port, apply.pair = t.Uplinks[ev.Target], t.Uplinks[ev.Target+1]
		case KindBlackhole:
			apply.port = t.HostPorts[ev.Target]
		case KindPause:
			apply.host = t.Hosts[ev.Target]
		case KindCrash:
			apply.host = t.Hosts[ev.Target]
			apply.crash = t.Crashers[ev.Target]
		case KindRNRStall:
			apply.stall = t.Stallers[ev.Target]
		}
		s.AtAction(ev.At, apply)
		if ev.Kind == KindSlow && ev.For <= 0 {
			continue
		}
		clear := *apply
		clear.clear = true
		clear.gbps = p.RestoreGbps
		s.AtAction(ev.Clear(), &clear)
	}
}
