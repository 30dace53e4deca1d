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
// integer-only (DESIGN.md §10): frames come from a Network-owned pool, a
// port crossing schedules the frame itself as its arrival action and the
// port itself as its drain action (typed sim actions, no closures and no
// per-hop event objects), switches route through a dense table indexed by
// NodeID into a few shared equal-cost port groups, and serialization time
// is one integer multiply per frame (precomputed picoseconds per byte).
// With 4–6 port hops per packet the fabric dominates simulator event
// count, so this path bounds how far experiments scale.
package netsim

import (
	"fmt"
	"math"
	"slices"
	"time"

	"falcon/internal/routing"
	"falcon/internal/sim"
)

// NodeID identifies a host in the network.
type NodeID int

// Frame is one packet on the wire. Frames on the hot path are pooled: see
// FramePool for the ownership rules (senders acquire via Host.NewFrame,
// the fabric releases on drop or after delivery; handlers must not retain
// the *Frame past return). A frame is in flight on one hop at a time,
// hand-built frames included: it is its own delivery action, so it must
// not be sent again before it arrives.
type Frame struct {
	// to is the device the current hop delivers to, set by Port.send and
	// read when the frame fires as its own arrival action. It leads the
	// struct so that this first touch of a cold frame usually brings in
	// Dst, which a switch reads next, on the same cache line.
	to       device
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
	// pooled marks frames owned by a FramePool; hand-built frames stay
	// with the garbage collector. It shares CE's word.
	pooled bool
	// OnDrop, when set, is called if the fabric discards the frame instead
	// of delivering it, so a sender whose Payload is itself pooled can
	// reclaim it. Senders install a func bound once, not a per-frame
	// closure.
	OnDrop func(payload any)
}

// arrival is a Frame scheduled as its own delivery action.
type arrival Frame

// RunAction hands the frame to the device its hop leads to.
func (a *arrival) RunAction() {
	f := (*Frame)(a)
	f.to.receive(f)
}

// Handler receives frames delivered to a host.
type Handler interface {
	HandleFrame(f *Frame)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(*Frame)

// HandleFrame calls fn(f).
func (fn HandlerFunc) HandleFrame(f *Frame) { fn(f) }

// device is anything a port can deliver to.
type device interface {
	receive(f *Frame)
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
}

// DefaultQueueBytes is every port's output-queue limit. Frames arriving
// at a full queue are dropped.
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
	// sim is the network's simulator, held here for the send path.
	sim  *sim.Simulator
	name string
	// psPerByte is the precomputed serialization cost in integer
	// picoseconds per byte; the hot path multiplies instead of dividing.
	psPerByte int64
	prop      time.Duration
	dst       device

	queuedBytes int
	busyUntil   sim.Time
	// drains is the FIFO ring of the sizes of committed frames whose
	// departure has not fired yet: a power of two long (nil until the
	// first send, then 8 slots, doubled when full); head counts pops and
	// tail pushes, both wrapping freely. Departures never decrease and
	// same-instant ones fire in push order, so the firing departure always
	// belongs to the ring head. head and the ring header sit right after
	// queuedBytes, in the same 64-byte line of the 256-byte Port
	// (TestPortLayout), so a departure touches one line of the port.
	head, tail uint32
	drains     []int32
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

	// Padding to 256 bytes, a multiple of 64: the allocator then puts
	// every Port on a 64-byte boundary, so the line holding queuedBytes
	// and the drain ring is a real cache line (TestPortLayout).
	_ [24]byte
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

func newPort(n *Network, name string, cfg LinkConfig, dst device) *Port {
	if cfg.GbpsRate <= 0 {
		panic("netsim: link rate must be positive")
	}
	p := &Port{
		net:       n,
		sim:       n.sim,
		name:      name,
		psPerByte: psPerByte(cfg.GbpsRate),
		prop:      cfg.PropDelay,
		dst:       dst,
	}
	n.ports = append(n.ports, p)
	return p
}

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
// re-times in-flight serialization, and the departures already scheduled
// for those bytes, with their sizes in the drain ring, stay valid. The new
// rate takes effect, consistently with the busyUntil commitment point, for
// the next frame enqueued: it begins serializing at max(now, busyUntil) at
// the new speed, so departures stay in ring order. Like construction, the
// rate is quantized to whole picoseconds per byte.
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
// serialization time, pushes f.Size on the drain ring and schedules two
// typed actions — the port itself at the departure instant and the frame
// itself after propagation — with no closures, no allocation and no
// floating point.
func (p *Port) send(f *Frame) {
	if p.downDepth > 0 {
		p.Stats.DownDrops++
		p.net.drop(f)
		return
	}
	if p.dropProb > 0 && p.sim.Rand().Float64() < p.dropProb {
		p.Stats.RandomDrops++
		p.net.drop(f)
		return
	}
	if p.corruptProb > 0 && p.sim.Rand().Float64() < p.corruptProb {
		p.Stats.CorruptDrops++
		p.net.drop(f)
		return
	}
	if p.queuedBytes+f.Size > DefaultQueueBytes {
		p.Stats.QueueDrops++
		p.net.drop(f)
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
	departAt := start.Add(serialization)
	p.busyUntil = departAt
	p.Stats.TxFrames++
	p.Stats.TxBytes += uint64(f.Size)

	arriveAt := departAt.Add(p.prop)
	if p.reorderProb > 0 && p.sim.Rand().Float64() < p.reorderProb {
		arriveAt = arriveAt.Add(p.reorderDelay)
		p.Stats.Reordered++
	}
	if p.tail-p.head == uint32(len(p.drains)) {
		p.growDrains()
	}
	p.drains[p.tail&uint32(len(p.drains)-1)] = int32(f.Size)
	p.tail++
	p.sim.AtAction(departAt, (*departure)(p))
	f.to = p.dst
	p.sim.AtAction(arriveAt, (*arrival)(f))
}

// growDrains doubles the drain ring (allocating its first 8 slots on the
// first send), moving the queued sizes to the front in FIFO order.
func (p *Port) growDrains() {
	n := p.tail - p.head
	ring := make([]int32, max(8, 2*len(p.drains)))
	for i := uint32(0); i < n; i++ {
		ring[i] = p.drains[(p.head+i)&uint32(len(p.drains)-1)]
	}
	p.drains, p.head, p.tail = ring, 0, n
}

// departure is a Port scheduled as its own drain action, once per
// committed frame at the frame's departure instant.
type departure Port

// RunAction retires the ring head: that frame has left the serializer, so
// its bytes leave the queue.
func (d *departure) RunAction() {
	p := (*Port)(d)
	p.queuedBytes -= int(p.drains[p.head&uint32(len(p.drains)-1)])
	p.head++
}

// Host is an endpoint with a single access link.
type Host struct {
	ID      NodeID
	net     *Network
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

// NewFrame returns a zeroed frame from the network's pool, owned by the
// caller until handed to Send. Transports on the steady-state path must
// use this (or Network.Frames) instead of allocating Frames so the fabric
// stays allocation-free; hand-built frames still work but are not
// recycled.
func (h *Host) NewFrame() *Frame { return h.net.frames.Acquire() }

// Send transmits a frame from this host. f.Src is set to the host's ID.
// Ownership of a pooled frame passes to the fabric: the caller must not
// touch f after Send returns.
func (h *Host) Send(f *Frame) {
	if h.pauseDepth > 0 {
		h.PauseTxDrops++
		h.net.drop(f)
		return
	}
	f.Src = h.ID
	f.SentAt = h.net.sim.Now()
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
		h.net.drop(f)
		return
	}
	h.RxFrames++
	if h.tap != nil {
		h.tap(f)
	}
	if h.handler != nil {
		h.handler.HandleFrame(f)
	}
	h.net.frames.Release(f)
}

// Switch forwards frames by destination, selecting among equal-cost
// next-hop ports through a pluggable routing.Policy (ECMP by default;
// see SetPolicy and Network.SetRoutingPolicy).
type Switch struct {
	id   int
	net  *Network
	salt uint64
	// policy selects among equal-cost next hops. Policy values are
	// stateless; the mutable selection state lives in the dense state
	// array below so switching policies never carries stale state.
	policy routing.Policy
	// route is the dense next-hop table indexed by destination NodeID:
	// an index into groups, 0 meaning no route. groups holds each distinct
	// equal-cost port set once (groups[0] is the empty set), so the
	// hundreds of remote hosts behind a ToR's uplinks share one set and
	// the table stays in cache.
	route  []uint16
	groups [][]*Port
	// state holds one policy word per destination NodeID, dense like
	// route (the spray packet counter; zero for ECMP/adaptive).
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

// addRoute registers ports as next hops toward dst, after any it already
// has. Groups are never modified once built: the extended set is looked up
// among the existing groups (newest first, since builders install runs of
// destinations with the same set) and added as a new one if absent.
func (sw *Switch) addRoute(dst NodeID, ports ...*Port) {
	for int(dst) >= len(sw.route) {
		sw.route = append(sw.route, 0)
		sw.state = append(sw.state, 0)
	}
	cur := sw.groups[sw.route[dst]]
	set := append(cur[:len(cur):len(cur)], ports...)
	for g := len(sw.groups) - 1; g >= 0; g-- {
		if slices.Equal(sw.groups[g], set) {
			sw.route[dst] = uint16(g)
			return
		}
	}
	if len(sw.groups) > math.MaxUint16 {
		panic(fmt.Sprintf("netsim: switch %d has more than %d distinct route groups", sw.id, math.MaxUint16))
	}
	sw.route[dst] = uint16(len(sw.groups))
	sw.groups = append(sw.groups, set)
}

// RouteTo returns the equal-cost port set toward dst (for impairment
// injection and telemetry). The set may be shared with other
// destinations; it is returned at full capacity, so an append by the
// caller copies instead of writing into it.
func (sw *Switch) RouteTo(dst NodeID) []*Port {
	if int(dst) < 0 || int(dst) >= len(sw.route) {
		return nil
	}
	g := sw.groups[sw.route[dst]]
	return g[:len(g):len(g)]
}

func (sw *Switch) receive(f *Frame) {
	sw.RxFrames++
	f.Hops++
	var ports []*Port
	d := int(f.Dst)
	if d >= 0 && d < len(sw.route) {
		ports = sw.groups[sw.route[d]]
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

// Network owns hosts and switches attached to one simulator, plus the
// frame pool recycling their frames.
type Network struct {
	sim      *sim.Simulator
	hosts    []*Host
	switches []*Switch
	// ports records every directed port in creation order, so audits (the
	// chaos frame-conservation ledger) can fold over the whole fabric.
	ports  []*Port
	policy routing.Policy
	frames FramePool
}

// New creates an empty network bound to s; its switches route with ECMP
// until SetRoutingPolicy installs another policy.
func New(s *sim.Simulator) *Network {
	return &Network{sim: s, policy: routing.ECMP{}}
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

// Sim returns the owning simulator.
func (n *Network) Sim() *sim.Simulator { return n.sim }

// Frames returns the network's frame pool, for senders not attached to a
// Host and for tests asserting pool behaviour (hosts draw from it via
// NewFrame).
func (n *Network) Frames() *FramePool { return &n.frames }

// drop discards a frame the fabric will not deliver; every drop site goes
// through here. The sender's OnDrop hook gets the payload back, the frame
// returns to the pool.
func (n *Network) drop(f *Frame) {
	if f.OnDrop != nil {
		f.OnDrop(f.Payload)
	}
	n.frames.Release(f)
}

// AddHost creates a host. Its handler may be set later.
func (n *Network) AddHost() *Host {
	h := &Host{ID: NodeID(len(n.hosts)), net: n}
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

// AddSwitch creates a switch running the network's routing policy.
func (n *Network) AddSwitch() *Switch {
	sw := &Switch{
		id:     len(n.switches),
		net:    n,
		salt:   routing.Mix64(uint64(len(n.switches))*0x9e3779b97f4a7c15 + 1),
		policy: n.policy,
		groups: [][]*Port{nil},
	}
	n.switches = append(n.switches, sw)
	return sw
}

// AttachHost wires host h to switch sw with symmetric link config, and
// installs the direct route sw -> h. Returns the downlink port (sw -> h) so
// callers can impair the "forward direction" of a path.
func (n *Network) AttachHost(h *Host, sw *Switch, cfg LinkConfig) *Port {
	up := newPort(n, fmt.Sprintf("h%d->sw%d", h.ID, sw.id), cfg, sw)
	down := newPort(n, fmt.Sprintf("sw%d->h%d", sw.id, h.ID), cfg, h)
	h.uplink = up
	sw.addRoute(h.ID, down)
	return down
}

// ConnectSwitches creates a bidirectional inter-switch link and returns the
// two directed ports (a->b, b->a). Routes must be installed by the caller
// (or by a topology builder).
func (n *Network) ConnectSwitches(a, b *Switch, cfg LinkConfig) (ab, ba *Port) {
	ab = newPort(n, fmt.Sprintf("sw%d->sw%d", a.id, b.id), cfg, b)
	ba = newPort(n, fmt.Sprintf("sw%d->sw%d", b.id, a.id), cfg, a)
	return ab, ba
}
