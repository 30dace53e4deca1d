// Package netsim simulates the Ethernet datacenter fabric the Falcon
// evaluation runs on: hosts with access links, output-queued switches,
// pluggable next-hop selection across equal-cost ports (internal/routing:
// flow-label ECMP by default, per-packet spray and least-queue adaptive as
// alternatives), and the switch-level impairments (random drop, reordering,
// link failure) the paper configures in §6.1.
//
// netsim is transport-agnostic: it moves Frames, which carry an opaque
// Payload. Falcon, RoCE and the software-transport baselines all ride the
// same fabric, so fabric behaviour can never silently favor one transport.
//
// The per-frame path is built to be steady-state allocation-free and
// integer-only (DESIGN.md §10): frames come from a Network-owned pool,
// port work is scheduled as pooled typed events rather than capture
// closures, switches route through a dense next-hop table indexed by
// NodeID, and serialization time is one integer multiply per frame
// (precomputed picoseconds per byte). With 4–6 port hops per packet the
// fabric dominates simulator event count, so this path bounds how far
// experiments scale.
package netsim

import (
	"fmt"
	"sync/atomic"
	"time"

	"falcon/internal/routing"
	"falcon/internal/sim"
)

// NodeID identifies a host in the network.
type NodeID int

// Frame is one packet on the wire. Frames on the hot path are pooled: see
// FramePool for the ownership rules (senders acquire via Host.NewFrame,
// the fabric releases on drop or after delivery; handlers must not retain
// the *Frame past return).
type Frame struct {
	Src, Dst NodeID
	// FlowHash is the ECMP hash input. Transports derive it from the
	// 4-tuple plus the IPv6 flow label, so changing the flow label
	// repaths the flow (PLB/PRR).
	FlowHash uint64
	// Size is the frame's wire size in bytes.
	Size int
	// Payload is the transport packet (e.g. *wire.Packet).
	Payload any
	// SentAt is stamped by Host.Send.
	SentAt sim.Time
	// Hops counts switch traversals, exported to transports that use a
	// hop-count congestion signal.
	Hops int
	// CE is the ECN congestion-experienced mark, set by any port whose
	// queue exceeds its marking threshold.
	CE bool
	// OnDrop, when set, is called if the fabric discards the frame instead
	// of delivering it, so a sender whose Payload is itself pooled can
	// reclaim it. at is the partition simulator executing the drop: under
	// the pools' migration rule (see fabricPool) that is the partition the
	// payload must be released on, which is not the sender's once the
	// frame has crossed a boundary. Senders install a func bound once, not
	// a per-frame closure.
	OnDrop func(at *sim.Simulator, payload any)

	// pooled marks frames owned by a FramePool; hand-built frames stay
	// with the garbage collector.
	pooled bool
}

// Handler receives frames delivered to a host.
type Handler interface {
	HandleFrame(f *Frame)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(*Frame)

// HandleFrame calls fn(f).
func (fn HandlerFunc) HandleFrame(f *Frame) { fn(f) }

// device is anything a port can deliver to. Every device is owned by one
// simulation partition (trivially partition 0 on a single-loop network);
// nodeSim reports the partition simulator its events must run on.
type device interface {
	receive(f *Frame)
	nodeSim() *sim.Simulator
}

// LinkConfig describes one direction of a link.
type LinkConfig struct {
	// GbpsRate is the link speed in gigabits per second. Rates are
	// quantized to a whole number of picoseconds per byte (8000/GbpsRate,
	// rounded): every rate of the form 8000/k Gb/s — including 1, 10,
	// 100 and 200 Gb/s — is represented exactly, and the maximum
	// representable rate is 8 Tb/s (1 ps/byte). See DESIGN.md §10 for the
	// integer time model.
	GbpsRate float64
	// PropDelay is the one-way propagation delay.
	PropDelay time.Duration
	// QueueBytes is the output queue limit; 0 means a generous default
	// (1 MiB). Frames arriving at a full queue are dropped.
	QueueBytes int
}

// DefaultQueueBytes is the output-queue limit used when LinkConfig leaves
// QueueBytes zero.
const DefaultQueueBytes = 1 << 20

// PortStats counts traffic through one directed port.
type PortStats struct {
	TxFrames    uint64
	TxBytes     uint64
	QueueDrops  uint64
	RandomDrops uint64
	// DownDrops counts frames dropped because the port was administratively
	// down (SetDown), kept separate from RandomDrops so outage experiments
	// do not inflate the random-loss line.
	DownDrops uint64
	// CorruptDrops counts frames dropped by an injected packet-corruption
	// window (SetCorruptProb): the wire delivered bytes but the FCS check
	// discarded them, so they are neither random fabric loss nor an
	// administrative outage.
	CorruptDrops  uint64
	Reordered     uint64
	ECNMarks      uint64
	MaxQueueBytes int
}

// Port is one directed egress: a serializing output queue feeding a
// propagation-delayed wire toward dst.
type Port struct {
	net *Network
	// sim is the source device's partition simulator: send, the drain tick
	// and all port state live there. dstSim is the destination device's;
	// when they differ the port is a partition boundary and deliveries are
	// handed across via sim.CrossAction (with the link's propagation delay
	// declared as conservative lookahead).
	sim    *sim.Simulator
	dstSim *sim.Simulator
	// pool recycles this partition's frames and port events; dstPool is
	// the destination partition's (where delivery events are released).
	pool    *fabricPool
	dstPool *fabricPool
	name    string
	// psPerByte is the precomputed serialization cost in integer
	// picoseconds per byte; the hot path multiplies instead of dividing.
	psPerByte int64
	prop      time.Duration
	limit     int
	dst       device

	queuedBytes int
	busyUntil   sim.Time
	// downDepth counts active SetDown(true) holds. The port drops frames
	// while downDepth > 0, so overlapping failure schedules (two Flaps, a
	// Flap inside a RackOutage, a storm campaign on top of either) nest:
	// the port comes back up only when every holder has released it, and a
	// second down can never double-count drops or re-arm a stale restore.
	downDepth int

	// Impairments, adjustable at runtime by experiments.
	dropProb     float64
	corruptProb  float64
	reorderProb  float64
	reorderDelay time.Duration

	// ecnThreshold marks frames CE when the queue exceeds this many
	// bytes (0 = ECN marking off).
	ecnThreshold int

	Stats PortStats
}

// psPerByte converts a Gbit/s link rate to the integer picoseconds one
// byte occupies on the wire: 8000/gbps, rounded to the nearest whole
// picosecond. The quantization is exact for every rate of the form 8000/k
// (1 Gb/s = 8000 ps/B, 100 Gb/s = 80 ps/B, 200 Gb/s = 40 ps/B, ...); other
// rates are represented to the nearest picosecond per byte. Rates above
// 8 Tb/s would quantize to zero wire time and are rejected.
func psPerByte(gbps float64) int64 {
	ps := int64(8000/gbps + 0.5)
	if ps < 1 {
		panic("netsim: link rate above 8 Tb/s exceeds the integer time model (minimum 1 ps/byte)")
	}
	return ps
}

func newPort(n *Network, name string, cfg LinkConfig, srcSim *sim.Simulator, dst device) *Port {
	if cfg.GbpsRate <= 0 {
		panic("netsim: link rate must be positive")
	}
	limit := cfg.QueueBytes
	if limit == 0 {
		limit = DefaultQueueBytes
	}
	dstSim := dst.nodeSim()
	p := &Port{
		net:       n,
		sim:       srcSim,
		dstSim:    dstSim,
		pool:      n.pools[srcSim.ShardIndex()],
		dstPool:   n.pools[dstSim.ShardIndex()],
		name:      name,
		psPerByte: psPerByte(cfg.GbpsRate),
		prop:      cfg.PropDelay,
		limit:     limit,
		dst:       dst,
	}
	if srcSim != dstSim {
		// Cross-partition link: its one-way propagation delay bounds how
		// soon a frame can affect the remote partition, so it is the safe
		// lookahead window. DeclareBoundary rejects zero-latency links —
		// co-locate such endpoints in one partition instead (the topology
		// builders keep racks intact for exactly this reason).
		n.group.DeclareBoundary(cfg.PropDelay)
	}
	n.ports = append(n.ports, p)
	return p
}

// Sim returns the partition simulator the port's source device runs on —
// the right place to schedule work that mutates this port (impairment
// schedules, degrade timers).
func (p *Port) Sim() *sim.Simulator { return p.sim }

// SetDropProb configures random egress drop with probability p, modeling the
// paper's "switch configured to randomly drop packets" experiments.
func (p *Port) SetDropProb(prob float64) { p.dropProb = prob }

// SetReorder configures random reordering: with probability prob a frame is
// held for extraDelay before delivery, so later frames overtake it.
func (p *Port) SetReorder(prob float64, extraDelay time.Duration) {
	p.reorderProb = prob
	p.reorderDelay = extraDelay
}

// SetDown marks the port failed; all frames are dropped (network outage for
// PRR experiments). Drops while down are counted in Stats.DownDrops, not
// Stats.RandomDrops.
//
// Down states nest: each SetDown(true) takes one hold on the port and each
// SetDown(false) releases one, so independent failure schedules targeting
// the same port (overlapping Flaps, a storm on top of an outage) compose —
// the port transmits again only after the last holder restores it. A
// release with no outstanding hold is ignored rather than underflowing.
func (p *Port) SetDown(down bool) {
	if down {
		p.downDepth++
		return
	}
	if p.downDepth > 0 {
		p.downDepth--
	}
}

// Down reports whether the port is administratively down (at least one
// SetDown(true) hold is outstanding).
func (p *Port) Down() bool { return p.downDepth > 0 }

// SetCorruptProb configures a packet-corruption window: with probability
// prob a frame that would have been transmitted is dropped after occupying
// the wire's attention, counted in Stats.CorruptDrops (the FCS-failure
// model chaos campaigns use — distinct from RandomDrops so corruption
// windows never inflate the random-loss line). prob 0 turns the window off
// and, like SetDropProb, costs no RNG draw on the hot path.
func (p *Port) SetCorruptProb(prob float64) { p.corruptProb = prob }

// SetECNThreshold enables ECN marking: frames that arrive to a queue
// deeper than bytes are marked congestion-experienced.
func (p *Port) SetECNThreshold(bytes int) { p.ecnThreshold = bytes }

// SetRateGbps changes the port speed at runtime (e.g. link downgrade).
//
// Semantics: a frame's departure time is committed at enqueue, so bytes
// already accepted by the serializer (everything up to busyUntil) keep the
// departure times computed under the old rate — a rate change never
// re-times in-flight serialization, and the drain events already scheduled
// for those bytes stay valid. The new rate takes effect, consistently with
// the busyUntil commitment point, for the next frame enqueued: it begins
// serializing at max(now, busyUntil) at the new speed. Like construction,
// the rate is quantized to whole picoseconds per byte.
func (p *Port) SetRateGbps(gbps float64) {
	if gbps <= 0 {
		panic("netsim: link rate must be positive")
	}
	p.psPerByte = psPerByte(gbps)
}

// QueueDelay returns the current queuing delay a newly arriving frame would
// experience before serialization begins.
func (p *Port) QueueDelay() time.Duration {
	now := p.sim.Now()
	if p.busyUntil <= now {
		return 0
	}
	return p.busyUntil.Sub(now)
}

// QueuedBytes returns the bytes currently awaiting serialization.
func (p *Port) QueuedBytes() int { return p.queuedBytes }

// send enqueues f for transmission. This is the fabric's hottest function:
// after the impairment checks it performs one integer multiply for the
// serialization time and schedules two pooled typed events (the
// departure-time drain tick and the propagation-delayed delivery) — no
// closures, no allocation, no floating point.
func (p *Port) send(f *Frame) {
	if p.downDepth > 0 {
		p.Stats.DownDrops++
		p.pool.drop(f)
		return
	}
	if p.dropProb > 0 && p.sim.Rand().Float64() < p.dropProb {
		p.Stats.RandomDrops++
		p.pool.drop(f)
		return
	}
	if p.corruptProb > 0 && p.sim.Rand().Float64() < p.corruptProb {
		p.Stats.CorruptDrops++
		p.pool.drop(f)
		return
	}
	if p.queuedBytes+f.Size > p.limit {
		p.Stats.QueueDrops++
		p.pool.drop(f)
		return
	}
	p.queuedBytes += f.Size
	if p.queuedBytes > p.Stats.MaxQueueBytes {
		p.Stats.MaxQueueBytes = p.queuedBytes
	}
	if p.ecnThreshold > 0 && p.queuedBytes > p.ecnThreshold {
		f.CE = true
		p.Stats.ECNMarks++
	}
	now := p.sim.Now()
	start := p.busyUntil
	if start < now {
		start = now
	}
	serialization := time.Duration(int64(f.Size) * p.psPerByte / 1000)
	departure := start.Add(serialization)
	p.busyUntil = departure
	p.Stats.TxFrames++
	p.Stats.TxBytes += uint64(f.Size)

	arrival := departure.Add(p.prop)
	if p.reorderProb > 0 && p.sim.Rand().Float64() < p.reorderProb {
		arrival = arrival.Add(p.reorderDelay)
		p.Stats.Reordered++
	}
	drain := p.pool.getEvent()
	drain.kind = evDrain
	drain.port = p
	drain.size = f.Size
	p.sim.AtAction(departure, drain)
	del := p.pool.getEvent()
	del.kind = evDeliver
	del.dst = p.dst
	del.frame = f
	// The delivery executes on the destination partition, so the event
	// migrates to its pool (the same pool on an intra-partition link).
	del.pool = p.dstPool
	p.sim.CrossAction(p.dstSim, arrival, del)
}

// Host is an endpoint with a single access link.
type Host struct {
	ID  NodeID
	net *Network
	// sim is the partition simulator this host's events run on (the
	// network's root simulator on a single-loop network); pool is that
	// partition's fabric free lists.
	sim     *sim.Simulator
	pool    *fabricPool
	handler Handler
	uplink  *Port
	tap     func(f *Frame)
	// pauseDepth counts active SetPaused(true) holds, nesting like
	// Port.downDepth so overlapping endpoint faults (a pause inside a
	// crash window) compose without an early release.
	pauseDepth int
	// RxFrames counts delivered frames.
	RxFrames uint64
	// SentFrames counts frames this host injected into the fabric (frames
	// refused by a pause are not counted). Together with the per-port drop
	// counters and PauseRxDrops it closes the frame-conservation ledger:
	// after a drained run, sum(SentFrames) = sum(RxFrames) + every drop.
	SentFrames uint64
	// PauseTxDrops / PauseRxDrops count frames refused because the host
	// was paused (endpoint fault injection): transmissions that never
	// reached the uplink, and arrivals discarded before the handler.
	PauseTxDrops uint64
	PauseRxDrops uint64
}

// SetPaused freezes or thaws the host, modeling an endpoint-level fault
// (host stall, crash window, dead NIC): while paused the host neither
// transmits (Send drops, counted in PauseTxDrops) nor receives (arrivals
// are discarded before tap and handler, counted in PauseRxDrops). The
// fabric is untouched — in-flight frames still arrive and are eaten at
// the edge, exactly like a machine whose OS stopped scheduling the NIC
// driver. Transport state above the host is preserved, so recovery after
// unpause exercises the retransmission machinery end to end.
//
// Pauses nest like Port.SetDown: each SetPaused(true) takes a hold, each
// SetPaused(false) releases one (ignored at zero), and the host runs
// again only when every holder has released it.
func (h *Host) SetPaused(paused bool) {
	if paused {
		h.pauseDepth++
		return
	}
	if h.pauseDepth > 0 {
		h.pauseDepth--
	}
}

// Paused reports whether the host is currently frozen.
func (h *Host) Paused() bool { return h.pauseDepth > 0 }

// SetHandler installs the frame receiver. Must be called before traffic
// arrives.
func (h *Host) SetHandler(hd Handler) { h.handler = hd }

// SetTap installs a wire-level observer invoked for every frame delivered
// to this host, before the handler runs (nil detaches). Verification
// harnesses use it to fingerprint fabric arrivals; it must not mutate the
// frame or retain it past return.
func (h *Host) SetTap(fn func(f *Frame)) { h.tap = fn }

// Uplink returns the host's egress port (host -> first switch), e.g. to
// impair or re-rate it.
func (h *Host) Uplink() *Port { return h.uplink }

// Sim returns the partition simulator this host's events run on.
// Transports attached to the host must schedule their timers and
// continuations here — not on the network's root simulator — so that on a
// sharded run their work executes on the host's partition.
func (h *Host) Sim() *sim.Simulator { return h.sim }

// nodeSim implements device.
func (h *Host) nodeSim() *sim.Simulator { return h.sim }

// NewFrame returns a zeroed frame from the network's pool, owned by the
// caller until handed to Send. Transports on the steady-state path must
// use this (or Network.Frames) instead of allocating Frames so the fabric
// stays allocation-free; hand-built frames still work but are not
// recycled.
func (h *Host) NewFrame() *Frame { return h.pool.frames.Acquire() }

// Send transmits a frame from this host. f.Src is set to the host's ID.
// Ownership of a pooled frame passes to the fabric: the caller must not
// touch f after Send returns.
func (h *Host) Send(f *Frame) {
	if h.pauseDepth > 0 {
		h.PauseTxDrops++
		h.pool.drop(f)
		return
	}
	f.Src = h.ID
	f.SentAt = h.sim.Now()
	f.Hops = 0
	if h.uplink == nil {
		panic(fmt.Sprintf("netsim: host %d has no uplink", h.ID))
	}
	h.SentFrames++
	h.uplink.send(f)
}

func (h *Host) receive(f *Frame) {
	if h.pauseDepth > 0 {
		h.PauseRxDrops++
		h.pool.drop(f)
		return
	}
	h.RxFrames++
	if h.tap != nil {
		h.tap(f)
	}
	if h.handler != nil {
		h.handler.HandleFrame(f)
	}
	h.pool.frames.Release(f)
}

// Switch forwards frames by destination, selecting among equal-cost
// next-hop ports through a pluggable routing.Policy (ECMP by default;
// see SetPolicy and Network.SetRoutingPolicy).
type Switch struct {
	id  int
	net *Network
	// sim/pool: the partition simulator this switch's forwarding runs on
	// and that partition's fabric free lists (see Host.sim).
	sim  *sim.Simulator
	pool *fabricPool
	salt uint64
	// policy selects among equal-cost next hops. Policy values are
	// stateless; the mutable selection state lives in the dense state
	// array below so switching policies never carries stale state.
	policy routing.Policy
	// routes is the dense next-hop table indexed by destination NodeID
	// (host IDs are small dense integers, so a slice index replaces the
	// former per-hop map lookup).
	routes [][]*Port
	// state holds one policy word per destination NodeID, dense like
	// routes (the spray packet counter; zero for ECMP/adaptive).
	state []uint64
	// qview is the reused queue-depth view handed to the policy; a
	// pointer to this field converts to routing.QueueDepths without
	// allocating on the per-frame path.
	qview portQueues
	// RxFrames counts frames entering the switch.
	RxFrames uint64
}

// portQueues adapts an equal-cost port set to routing.QueueDepths.
type portQueues struct {
	ports []*Port
}

// QueuedBytes implements routing.QueueDepths.
func (q *portQueues) QueuedBytes(i int) int { return q.ports[i].queuedBytes }

// SetPolicy installs the routing policy for this switch and clears any
// per-destination policy state (spray counters restart from zero, so a
// policy change mid-build cannot leak state between policies).
func (sw *Switch) SetPolicy(p routing.Policy) {
	if p == nil {
		p = routing.ECMP{}
	}
	sw.policy = p
	for i := range sw.state {
		sw.state[i] = 0
	}
}

// Policy returns the switch's routing policy.
func (sw *Switch) Policy() routing.Policy { return sw.policy }

// Sim returns the partition simulator this switch's forwarding runs on.
func (sw *Switch) Sim() *sim.Simulator { return sw.sim }

// nodeSim implements device.
func (sw *Switch) nodeSim() *sim.Simulator { return sw.sim }

// addRoute registers ports as next hops toward dst.
func (sw *Switch) addRoute(dst NodeID, ports ...*Port) {
	for int(dst) >= len(sw.routes) {
		sw.routes = append(sw.routes, nil)
		sw.state = append(sw.state, 0)
	}
	sw.routes[dst] = append(sw.routes[dst], ports...)
}

// RouteTo returns the equal-cost port set toward dst (for impairment
// injection and telemetry).
func (sw *Switch) RouteTo(dst NodeID) []*Port {
	if int(dst) < 0 || int(dst) >= len(sw.routes) {
		return nil
	}
	return sw.routes[dst]
}

func (sw *Switch) receive(f *Frame) {
	sw.RxFrames++
	f.Hops++
	var ports []*Port
	d := int(f.Dst)
	if d >= 0 && d < len(sw.routes) {
		ports = sw.routes[d]
	}
	switch len(ports) {
	case 0:
		panic(fmt.Sprintf("netsim: switch %d has no route to host %d", sw.id, f.Dst))
	case 1:
		ports[0].send(f)
	default:
		sw.qview.ports = ports
		k := routing.Key{FlowHash: f.FlowHash, Salt: sw.salt, Src: uint64(f.Src), Dst: uint64(f.Dst)}
		ports[sw.policy.Select(k, len(ports), &sw.state[d], &sw.qview)].send(f)
	}
}

// defaultPolicy is the routing policy AddSwitch installs on new
// switches when the owning network has none set; cmd/falconbench
// -routing overrides it process-wide. Atomic because parallel
// experiment runners build networks from several goroutines.
var defaultPolicy atomic.Value // routing.Policy

// SetDefaultPolicy selects the routing policy networks built after the
// call install on their switches (existing networks are unaffected).
// nil restores ECMP. Tests that need a specific policy should use
// Network.SetRoutingPolicy or Switch.SetPolicy instead of mutating the
// process-wide default.
func SetDefaultPolicy(p routing.Policy) {
	if p == nil {
		p = routing.ECMP{}
	}
	defaultPolicy.Store(&p)
}

// DefaultPolicy reports the routing policy New currently gives to
// networks (ECMP unless SetDefaultPolicy changed it).
func DefaultPolicy() routing.Policy {
	if v, ok := defaultPolicy.Load().(*routing.Policy); ok {
		return *v
	}
	return routing.ECMP{}
}

// Network owns hosts and switches attached to one simulator, plus the
// fast-path pools recycling frames and port events.
//
// On a sharded simulator (sim.Sharded) the network is partition-aware:
// every device is assigned to one partition (round-robin by default, or
// explicitly via AddHostOn/AddSwitchOn — the topology builders keep each
// rack intact), each partition owns its own fabric pools, and ports whose
// endpoints live in different partitions declare their propagation delay
// as the group's conservative lookahead.
type Network struct {
	sim      *sim.Simulator
	group    *sim.Sharded
	hosts    []*Host
	switches []*Switch
	// ports records every directed port in creation order, so audits (the
	// chaos frame-conservation ledger) can fold over the whole fabric.
	ports  []*Port
	policy routing.Policy

	// pools holds one fabricPool per partition (exactly one on a
	// single-loop network); nextHostPart/nextSwitchPart drive the default
	// round-robin partition assignment.
	pools          []*fabricPool
	nextHostPart   int
	nextSwitchPart int
}

// New creates an empty network bound to s.
func New(s *sim.Simulator) *Network {
	n := &Network{sim: s, group: s.Group(), policy: DefaultPolicy()}
	parts := 1
	if n.group != nil {
		parts = n.group.Shards()
	}
	n.pools = make([]*fabricPool, parts)
	for i := range n.pools {
		n.pools[i] = &fabricPool{sim: n.partSim(i)}
	}
	return n
}

// partSim returns partition i's simulator (the root simulator on a
// single-loop network).
func (n *Network) partSim(i int) *sim.Simulator {
	if n.group == nil {
		return n.sim
	}
	return n.group.Part(i)
}

// SetRoutingPolicy installs p (nil = ECMP) on every existing switch and
// on switches added later — the topology-wide knob experiments use to
// pit Falcon against spray or adaptive fabrics. Per-destination policy
// state is cleared on every switch (see Switch.SetPolicy).
func (n *Network) SetRoutingPolicy(p routing.Policy) {
	if p == nil {
		p = routing.ECMP{}
	}
	n.policy = p
	for _, sw := range n.switches {
		sw.SetPolicy(p)
	}
}

// RoutingPolicy returns the policy new switches receive.
func (n *Network) RoutingPolicy() routing.Policy { return n.policy }

// Sim returns the owning simulator.
func (n *Network) Sim() *sim.Simulator { return n.sim }

// Frames returns partition 0's frame pool, for senders not attached to a
// Host and for tests asserting pool behaviour (hosts draw from their own
// partition's pool via NewFrame).
func (n *Network) Frames() *FramePool { return &n.pools[0].frames }

// AddHost creates a host, assigning it to the next partition round-robin
// (partition 0 on a single-loop network). Its handler may be set later.
func (n *Network) AddHost() *Host {
	part := 0
	if n.group != nil {
		part = n.nextHostPart % len(n.pools)
		n.nextHostPart++
	}
	return n.AddHostOn(part)
}

// AddHostOn creates a host on partition part (mod the partition count, so
// topology builders can pass a rack index directly). On a single-loop
// network every host lands on the one partition.
func (n *Network) AddHostOn(part int) *Host {
	part %= len(n.pools)
	h := &Host{ID: NodeID(len(n.hosts)), net: n, sim: n.partSim(part), pool: n.pools[part]}
	n.hosts = append(n.hosts, h)
	return h
}

// Host returns the host with the given ID.
func (n *Network) Host(id NodeID) *Host { return n.hosts[int(id)] }

// Hosts returns all hosts.
func (n *Network) Hosts() []*Host { return n.hosts }

// Switches returns all switches in creation order.
func (n *Network) Switches() []*Switch { return n.switches }

// Ports returns every directed port of the network in creation order —
// the iteration surface for whole-fabric audits like the chaos ledger
// (sum of drops across every hop) and for sweeping impairments.
func (n *Network) Ports() []*Port { return n.ports }

// AddSwitch creates a switch running the network's routing policy,
// assigned to the next partition round-robin (see AddSwitchOn).
func (n *Network) AddSwitch() *Switch {
	part := 0
	if n.group != nil {
		part = n.nextSwitchPart % len(n.pools)
		n.nextSwitchPart++
	}
	return n.AddSwitchOn(part)
}

// AddSwitchOn creates a switch on partition part (mod the partition
// count), running the network's routing policy.
func (n *Network) AddSwitchOn(part int) *Switch {
	part %= len(n.pools)
	sw := &Switch{
		id:     len(n.switches),
		net:    n,
		sim:    n.partSim(part),
		pool:   n.pools[part],
		salt:   routing.Mix64(uint64(len(n.switches))*0x9e3779b97f4a7c15 + 1),
		policy: n.policy,
	}
	n.switches = append(n.switches, sw)
	return sw
}

// AttachHost wires host h to switch sw with symmetric link config, and
// installs the direct route sw -> h. Returns the downlink port (sw -> h) so
// callers can impair the "forward direction" of a path.
func (n *Network) AttachHost(h *Host, sw *Switch, cfg LinkConfig) *Port {
	up := newPort(n, fmt.Sprintf("h%d->sw%d", h.ID, sw.id), cfg, h.sim, sw)
	down := newPort(n, fmt.Sprintf("sw%d->h%d", sw.id, h.ID), cfg, sw.sim, h)
	h.uplink = up
	sw.addRoute(h.ID, down)
	return down
}

// ConnectSwitches creates a bidirectional inter-switch link and returns the
// two directed ports (a->b, b->a). Routes must be installed by the caller
// (or by a topology builder).
func (n *Network) ConnectSwitches(a, b *Switch, cfg LinkConfig) (ab, ba *Port) {
	ab = newPort(n, fmt.Sprintf("sw%d->sw%d", a.id, b.id), cfg, a.sim, b)
	ba = newPort(n, fmt.Sprintf("sw%d->sw%d", b.id, a.id), cfg, b.sim, a)
	return ab, ba
}
