// Package fae implements the Falcon Adaptive Engine: the software half of
// the paper's mechanism/management split (Table 3). The PDL (hardware
// mechanism) measures congestion signals and enforces windows; the FAE
// (software management, running on on-NIC CPU cores) consumes per-flow
// events and computes:
//
//   - fcwnd per multipath flow and ncwnd per connection (Swift variant, §4.2)
//   - loss-recovery parameters: RTO, RACK reordering window, TLP timeout (§4.1)
//   - flow-label (re)assignment: PLB repathing on persistent congestion and
//     PRR repathing on timeout-signalled outages (§4.3)
//   - the dynamic-threshold α_c used for connection isolation (§4.6)
//
// Events and responses cross a queue pair, exactly like the shared-memory
// event/response rings of Figure 9. The engine also carries the cache-cost
// model used to reproduce the FAE scalability results (Figures 22–23):
// stateless FAE embeds algorithm state in the event, stateful FAE fetches it
// from memory (cost grows as cumulative state spills L1→L2→L3→DRAM), and
// prefetching hides most of the fetch by looking ahead in the event queue.
package fae

import (
	"time"

	"falcon/internal/falcon/cc"
	"falcon/internal/falcon/wire"
	"falcon/internal/sim"
)

// EventKind classifies PDL-to-FAE events.
type EventKind uint8

const (
	// EventAck reports a delay/occupancy sample from an arriving ACK.
	EventAck EventKind = iota
	// EventFastRetransmit reports a SACK/RACK-detected loss.
	EventFastRetransmit
	// EventRTO reports a retransmission timeout (possible outage; PRR).
	EventRTO
	// EventNack reports a NACK arrival (resource pressure at peer).
	EventNack
)

// Event is one PDL→FAE message (Figure 9). Conn is the connection's key
// on this engine, the one it was registered under.
type Event struct {
	Kind EventKind
	Conn uint32
	Flow int
	Now  sim.Time

	// Congestion signals (EventAck).
	FabricDelay    time.Duration
	RTT            time.Duration
	AckedPackets   int
	Hops           int
	RxBufOccupancy float64 // 0..1
	// ECE is the receiver's ECN echo: a CE-marked packet arrived since
	// the previous ACK.
	ECE bool
}

// Response is one FAE→PDL message carrying the recomputed transport
// parameters for (Conn, Flow).
type Response struct {
	Conn uint32
	Flow int

	// FlowCwnd is the flow's fabric congestion window.
	FlowCwnd float64
	// ConnCwnd is the connection-level fcwnd: the sum over flows.
	ConnCwnd float64
	// NCwnd is the connection's NIC congestion window.
	NCwnd float64

	// Loss-recovery parameters.
	RTO        time.Duration
	RackReoWnd time.Duration
	TLPTimeout time.Duration

	// FlowLabel is the (possibly repathed) label the flow must use.
	FlowLabel wire.FlowLabel
	// Repathed reports whether PLB/PRR changed the label.
	Repathed bool

	// Alpha is the dynamic-threshold α_c for this connection (§4.6).
	Alpha float64
}

// Config parameterizes the engine.
type Config struct {
	Swift cc.SwiftConfig

	// UseECN makes the CC also react to ECN echoes (a supplementary
	// signal per Table 3; delay remains the primary signal).
	UseECN bool

	// ResponseDelay models FAE turnaround latency (Figure 22b injects
	// artificial delays here). Zero means same-timestep response.
	ResponseDelay time.Duration
}

// DefaultConfig returns the engine configuration used in the evaluation.
func DefaultConfig() Config {
	return Config{
		Swift: cc.DefaultSwiftConfig(),
	}
}

// The engine's fixed parameters.
const (
	// plbCongestedRounds is how many consecutive congested ACK rounds
	// trigger a repath (PLB's protection threshold).
	plbCongestedRounds = 8
	// initialCwnd seeds each connection's fcwnd, split evenly across its
	// flows.
	initialCwnd = 16
	// minRTO/maxRTO clamp the computed retransmission timeout.
	minRTO, maxRTO = 100 * time.Microsecond, 10 * time.Millisecond
	// baseAlpha is the DT α scaled by the per-connection congestion
	// factor β_c.
	baseAlpha = 2.0
	// fcwndCap is the ceiling cc.Swift clamps a flow's fcwnd to; α_c
	// normalizes the window against it (TestFcwndCapMatchesSwift).
	fcwndCap = 256
)

// flowState is one multipath flow's state. A connection keeps its flows by
// value in one slice, each with its Swift instance inline.
type flowState struct {
	swift     cc.Swift
	label     wire.FlowLabel
	congested int32 // consecutive congested rounds (PLB counter)
}

// connState is one registered connection's state; flows is nil in a slot
// that holds no connection.
type connState struct {
	ncwnd  cc.Ncwnd
	flows  []flowState
	rttvar time.Duration
	srtt   time.Duration

	// Congestion factors for α_c (§4.6): β_c is proportional to the
	// windows and inversely proportional to delay/occupancy.
	lastDelay time.Duration
	lastOcc   float64
}

// Engine is one FAE instance. It is driven by the simulator: Post schedules
// processing after Config.ResponseDelay and delivers the Response to the
// sink registered at construction.
type Engine struct {
	sim  *sim.Simulator
	cfg  Config
	sink func(Response)

	// obs, when non-nil, observes every processed (event, response) pair
	// before the response is delivered — telemetry's window into the CC
	// loop (delay samples, cwnd evolution). One nil check when unset.
	obs func(ev Event, r Response)

	// conns is indexed by the key a connection was registered under.
	conns []connState

	nextPath uint32 // path discriminator allocator for repathing

	// Stats
	EventsProcessed uint64
	Repaths         uint64
}

// New creates an engine delivering responses to sink.
func New(s *sim.Simulator, cfg Config, sink func(Response)) *Engine {
	return &Engine{sim: s, cfg: cfg, sink: sink, nextPath: 1}
}

// RegisterConn sets up state for a connection with numFlows multipath
// flows under key conn, returning the initial flow labels. numFlows of 1
// disables multipathing (single-path baseline). Keys index a dense table,
// so callers hand out small integers (core uses the endpoint's per-node
// key); registering a key again replaces its state.
func (e *Engine) RegisterConn(conn uint32, numFlows int) []wire.FlowLabel {
	if numFlows < 1 {
		numFlows = 1
	}
	if numFlows > wire.MaxFlows {
		numFlows = wire.MaxFlows
	}
	// NewNcwnd(0) starts the ncwnd at a quarter of its ceiling.
	for int(conn) >= len(e.conns) {
		e.conns = append(e.conns, connState{})
	}
	cs := &e.conns[conn]
	*cs = connState{ncwnd: cc.NewNcwnd(0), flows: make([]flowState, numFlows)}
	labels := make([]wire.FlowLabel, numFlows)
	for i := range cs.flows {
		cs.flows[i] = flowState{
			swift: cc.NewSwift(e.cfg.Swift, initialCwnd/float64(numFlows)),
			label: wire.MakeFlowLabel(e.allocPath(), i),
		}
		labels[i] = cs.flows[i].label
	}
	return labels
}

// UnregisterConn drops a connection's state; an unknown key is ignored.
func (e *Engine) UnregisterConn(conn uint32) {
	if int(conn) < len(e.conns) {
		e.conns[conn] = connState{}
	}
}

// conn returns the state registered under key conn, or nil.
func (e *Engine) conn(conn uint32) *connState {
	if int(conn) >= len(e.conns) || e.conns[conn].flows == nil {
		return nil
	}
	return &e.conns[conn]
}

func (e *Engine) allocPath() uint32 {
	p := e.nextPath
	e.nextPath++
	return p
}

// Post enqueues an event. The response is produced after ResponseDelay.
func (e *Engine) Post(ev Event) {
	if e.cfg.ResponseDelay <= 0 {
		e.process(ev)
		return
	}
	e.sim.After(e.cfg.ResponseDelay, func() { e.process(ev) })
}

func (e *Engine) process(ev Event) {
	cs := e.conn(ev.Conn)
	if cs == nil {
		return
	}
	if ev.Flow < 0 || ev.Flow >= len(cs.flows) {
		ev.Flow = 0
	}
	fs := &cs.flows[ev.Flow]
	e.EventsProcessed++

	repathed := false
	switch ev.Kind {
	case EventAck:
		fs.swift.OnAck(cc.Sample{
			FabricDelay:  ev.FabricDelay,
			RTT:          ev.RTT,
			AckedPackets: ev.AckedPackets,
			Hops:         ev.Hops,
			Now:          ev.Now,
		})
		if e.cfg.UseECN && ev.ECE {
			fs.swift.OnECN(ev.Now)
		}
		cs.ncwnd.OnAck(ev.RxBufOccupancy, ev.AckedPackets, ev.RTT, ev.Now)
		cs.updateRTT(ev.RTT)
		cs.lastDelay = ev.FabricDelay
		cs.lastOcc = ev.RxBufOccupancy
		// PLB: repath a flow stuck on a congested path.
		if ev.FabricDelay > fs.swift.TargetDelay(ev.Hops) {
			fs.congested++
			if fs.congested >= plbCongestedRounds {
				fs.label = fs.label.WithPath(e.allocPath())
				fs.congested = 0
				repathed = true
				e.Repaths++
			}
		} else if fs.congested > 0 {
			fs.congested--
		}
	case EventFastRetransmit:
		fs.swift.OnFastRetransmit(ev.Now)
	case EventRTO:
		fs.swift.OnRetransmitTimeout()
		// PRR: a timeout suggests the path is broken; flip the flow
		// label so switches rehash onto a different path.
		fs.label = fs.label.WithPath(e.allocPath())
		repathed = true
		e.Repaths++
	case EventNack:
		fs.swift.OnFastRetransmit(ev.Now)
	}

	resp := e.buildResponse(ev.Conn, ev.Flow, cs, fs, repathed)
	if e.obs != nil {
		e.obs(ev, resp)
	}
	e.sink(resp)
}

// SetObserver attaches an event/response observer (nil detaches). It runs
// synchronously inside event processing and must not mutate engine state;
// telemetry uses it to build delay histograms and cwnd series.
func (e *Engine) SetObserver(fn func(ev Event, r Response)) { e.obs = fn }

func (cs *connState) updateRTT(rtt time.Duration) {
	if rtt <= 0 {
		return
	}
	if cs.srtt == 0 {
		cs.srtt = rtt
		cs.rttvar = rtt / 2
		return
	}
	diff := cs.srtt - rtt
	if diff < 0 {
		diff = -diff
	}
	cs.rttvar = (3*cs.rttvar + diff) / 4
	cs.srtt = (7*cs.srtt + rtt) / 8
}

func (e *Engine) buildResponse(conn uint32, flow int, cs *connState, fs *flowState, repathed bool) Response {
	sum := 0.0
	for i := range cs.flows {
		sum += cs.flows[i].swift.Cwnd()
	}
	rto := cs.srtt*2 + 4*cs.rttvar
	if rto < minRTO {
		rto = minRTO
	}
	if rto > maxRTO {
		rto = maxRTO
	}
	reoWnd := cs.srtt / 4
	tlp := 2 * cs.srtt
	if cs.srtt == 0 {
		tlp = minRTO
		reoWnd = minRTO / 8
	}
	if tlp < minRTO/2 {
		tlp = minRTO / 2
	}
	return Response{
		Conn:       conn,
		Flow:       flow,
		FlowCwnd:   fs.swift.Cwnd(),
		ConnCwnd:   sum,
		NCwnd:      cs.ncwnd.Cwnd(),
		RTO:        rto,
		RackReoWnd: reoWnd,
		TLPTimeout: tlp,
		FlowLabel:  fs.label,
		Repathed:   repathed,
		Alpha:      e.alpha(cs),
	}
}

// alpha computes α_c = β_c·α (§4.6): β_c grows with the connection's
// windows and shrinks with fabric delay and buffer occupancy, so congested,
// slow-progress connections get a smaller share of Falcon's resources.
func (e *Engine) alpha(cs *connState) float64 {
	sum := 0.0
	for i := range cs.flows {
		sum += cs.flows[i].swift.Cwnd()
	}
	wnd := sum
	if n := cs.ncwnd.Cwnd(); n < wnd {
		wnd = n
	}
	// Normalize window to [0,1] against the fcwnd cap.
	wndFrac := wnd / fcwndCap
	if wndFrac > 1 {
		wndFrac = 1
	}
	delayPenalty := 1.0
	if cs.srtt > 0 && cs.lastDelay > 0 {
		target := e.cfg.Swift.BaseTargetDelay
		if cs.lastDelay > target {
			delayPenalty = float64(target) / float64(cs.lastDelay)
		}
	}
	occPenalty := 1.0 - cs.lastOcc
	if occPenalty < 0.05 {
		occPenalty = 0.05
	}
	beta := wndFrac * delayPenalty * occPenalty
	if beta < 0.01 {
		beta = 0.01
	}
	return baseAlpha * beta
}

// FlowLabels returns the current labels of a connection's flows (test and
// diagnostics helper).
func (e *Engine) FlowLabels(conn uint32) []wire.FlowLabel {
	cs := e.conn(conn)
	if cs == nil {
		return nil
	}
	out := make([]wire.FlowLabel, len(cs.flows))
	for i := range cs.flows {
		out[i] = cs.flows[i].label
	}
	return out
}
