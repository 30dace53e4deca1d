// Package nic models the Falcon hardware pipeline constraints of §5: the
// packet-processing pipeline that bounds op rate (per-connection and
// aggregate), the connection-state cache whose misses dominate latency at
// high connection counts (Figure 21), and the host interface (PCIe) whose
// bandwidth bounds delivery to host memory and backs up the RX packet
// buffer (Figure 14).
//
// The model is deliberately simple: each packet pass through the NIC incurs
// a start time constrained by per-connection and global pipeline
// availability plus a connection-cache lookup cost. The same model serves
// the RoCE baseline with a different cache Config (host-memory connection
// state instead of on-NIC DRAM).
package nic

import (
	"time"

	"falcon/internal/sim"
)

// Config parameterizes the NIC model: the connection-state cache
// hierarchy (§5.2 "Connection State Caching"), which is what tells the
// 200G Falcon IPU from a CX7-like RNIC.
type Config struct {
	CacheSize   int           // on-chip first-level entries
	L2CacheSize int           // shared second-level entries
	MissCost    time.Duration // backing store (on-NIC DRAM or host memory)
}

// The NIC model's fixed parameters.
const (
	// perConnPacketInterval is the pipeline's per-connection
	// serialization: one connection cannot process packets faster than
	// one per interval (25ns ≈ 20M 2-packet ops/s on one QP).
	perConnPacketInterval = 25 * time.Nanosecond
	// globalPacketInterval is the aggregate pipeline limit across all
	// connections (~4.2ns ≈ 120M 2-packet ops/s).
	globalPacketInterval = 4 * time.Nanosecond
	// hitCost and l2HitCost are the first- and second-level cache hits.
	hitCost   = 5 * time.Nanosecond
	l2HitCost = 40 * time.Nanosecond
	// initialHostGbps is the host interface (PCIe) bandwidth for payload
	// delivery to memory until SetHostGbps changes it.
	initialHostGbps = 200
	// rxBufferBytes is the on-chip RX packet buffer (O(BDP), §5.2:
	// 1.25MB ≈ BDP at 200G, 50us); payload awaiting host delivery
	// occupies it. Overflow spills to on-NIC DRAM (allowed, with extra
	// latency) rather than dropping.
	rxBufferBytes = 1280 << 10
	// dramSpillLatency is added to host delivery for bytes that spilled.
	dramSpillLatency = 500 * time.Nanosecond
)

// DefaultConfig models the 200G Falcon IPU.
func DefaultConfig() Config {
	return Config{
		CacheSize:   16 << 10,
		L2CacheSize: 128 << 10,
		MissCost:    250 * time.Nanosecond, // on-NIC DRAM
	}
}

// CX7LikeConfig models a conventional RNIC whose connection state lives in
// host memory: far costlier misses (Figure 21's ~3x RTT cliff).
func CX7LikeConfig() Config {
	cfg := DefaultConfig()
	cfg.CacheSize = 8 << 10
	cfg.L2CacheSize = 0
	cfg.MissCost = 1200 * time.Nanosecond // host memory over PCIe
	return cfg
}

// Stats counts NIC-level activity.
type Stats struct {
	PacketsProcessed uint64
	CacheHits        uint64
	L2Hits           uint64
	CacheMisses      uint64
	HostBytes        uint64
	SpilledBytes     uint64
	MaxRxOccupancy   float64
	// GlobalWait and ConnWait attribute pipeline admission delay to the
	// aggregate pipe vs per-connection serialization (diagnostics).
	GlobalWait time.Duration
	ConnWait   time.Duration
}

// NIC is one NIC instance's pipeline model.
type NIC struct {
	sim *sim.Simulator
	cfg Config

	globalFree sim.Time
	// pipes is indexed by the caller's connection key. core passes a
	// dense per-node index (Endpoint.key), so a grown-on-demand slice
	// replaces the former map: the per-packet admission path does one
	// array load instead of two map probes, and the slice is as long as
	// this NIC's connections.
	pipes []connPipe

	cache   *connCache
	l2cache *connCache

	// Host interface state.
	hostGbps  float64 // bandwidth, initialHostGbps until SetHostGbps
	hostFree  sim.Time
	rxQueued  int // bytes awaiting host delivery
	rxSpilled int // bytes currently spilled to DRAM

	// hostEvents is the free list of pooled host-delivery completions,
	// shared by every NIC of a cluster (ShareHostEvents).
	hostEvents *sim.FreeList[hostEvent]

	Stats Stats
}

// New creates a NIC bound to the simulator.
func New(s *sim.Simulator, cfg Config) *NIC {
	n := &NIC{sim: s, cfg: cfg, hostGbps: initialHostGbps, hostEvents: new(sim.FreeList[hostEvent])}
	if cfg.CacheSize > 0 {
		n.cache = newConnCache(cfg.CacheSize)
	}
	if cfg.L2CacheSize > 0 {
		n.l2cache = newConnCache(cfg.L2CacheSize)
	}
	return n
}

// connPipe is one connection's private pipeline: free is when it can
// take the connection's next packet, and done is when its latest packet
// completes, which enforces in-order completion per connection (a cheap
// lookup must not let a later packet finish before an earlier one).
type connPipe struct {
	free, done sim.Time
}

// pipe returns conn's pipeline, growing the slice as connections appear.
func (n *NIC) pipe(conn uint32) *connPipe {
	if int(conn) >= len(n.pipes) {
		n.pipes = growTo(n.pipes, int(conn))
	}
	return &n.pipes[conn]
}

// growTo returns s grown to cover index i: at least doubled, so keys that
// appear in random order copy the slice O(log n) times, not once per new
// maximum, and no longer than index i needs, so a node with one connection
// keeps one pipe.
func growTo[T any](s []T, i int) []T {
	grown := make([]T, max(2*len(s), i+1))
	copy(grown, s)
	return grown
}

// lookupCost models the connection-state fetch for one packet.
func (n *NIC) lookupCost(conn uint32) time.Duration {
	if n.cache == nil {
		return hitCost
	}
	if n.cache.touch(conn) {
		n.Stats.CacheHits++
		return hitCost
	}
	if n.l2cache != nil && n.l2cache.touch(conn) {
		n.Stats.L2Hits++
		n.cache.insert(conn)
		return l2HitCost
	}
	n.Stats.CacheMisses++
	n.cache.insert(conn)
	if n.l2cache != nil {
		n.l2cache.insert(conn)
	}
	return n.cfg.MissCost
}

// admit runs the pipeline admission bookkeeping for one packet of conn and
// returns the virtual time its processing completes.
func (n *NIC) admit(conn uint32) sim.Time {
	now := n.sim.Now()
	// The global pipe admits packets at its own cadence; a connection
	// whose private pipeline is busy must not hold the global cursor
	// back (or, worse, drag it forward to its own future readiness).
	gStart := now
	if n.globalFree > gStart {
		n.Stats.GlobalWait += n.globalFree.Sub(gStart)
		gStart = n.globalFree
	}
	n.globalFree = gStart.Add(globalPacketInterval)
	// Per-connection serialization applies after global admission.
	start := gStart
	cp := n.pipe(conn)
	if cp.free > start {
		n.Stats.ConnWait += cp.free.Sub(start)
		start = cp.free
	}
	cost := n.lookupCost(conn)
	done := start.Add(cost)
	if done < cp.done {
		done = cp.done
	}
	cp.done = done
	cp.free = start.Add(perConnPacketInterval)
	n.Stats.PacketsProcessed++
	return done
}

// ProcessAction schedules a after the NIC pipeline has processed one
// packet for conn: per-connection and global serialization plus the
// connection-state lookup. Used for both TX and RX passes. Callers pass a
// pooled or long-lived sim.Action, not a capture closure, so the
// per-packet path stays allocation-free.
func (n *NIC) ProcessAction(conn uint32, a sim.Action) {
	n.sim.AtAction(n.admit(conn), a)
}

// DeliverToHost models payload DMA to host memory at HostGbps. The bytes
// occupy the RX packet buffer until drained; occupancy beyond the SRAM
// capacity spills to DRAM with extra latency but is never dropped (§5.2
// "Falcon HW also allows packet buffers to overflow ... to external on-NIC
// DRAM"). done fires when the payload has landed in host memory.
func (n *NIC) DeliverToHost(bytes int, done func()) {
	if bytes <= 0 {
		if done != nil {
			done()
		}
		return
	}
	now := n.sim.Now()
	n.rxQueued += bytes
	spilled := false
	if n.rxQueued > rxBufferBytes {
		spilled = true
		n.rxSpilled += bytes
		n.Stats.SpilledBytes += uint64(bytes)
	}
	if occ := n.RxOccupancy(); occ > n.Stats.MaxRxOccupancy {
		n.Stats.MaxRxOccupancy = occ
	}
	start := now
	if n.hostFree > start {
		start = n.hostFree
	}
	drain := time.Duration(float64(bytes) * 8 / n.hostGbps) // ns
	finish := start.Add(drain)
	if spilled {
		finish = finish.Add(dramSpillLatency)
	}
	n.hostFree = finish
	n.Stats.HostBytes += uint64(bytes)
	ev := n.hostEvents.Get()
	ev.n, ev.bytes, ev.spilled, ev.done = n, bytes, spilled, done
	n.sim.AtAction(finish, ev)
}

// hostEvent is the pooled completion of one DeliverToHost transfer. The
// common caller (core's payload DMA) passes done == nil, so recycling the
// event makes host delivery allocation-free.
type hostEvent struct {
	n       *NIC
	bytes   int
	spilled bool
	done    func()
}

func (ev *hostEvent) RunAction() {
	n := ev.n
	n.rxQueued -= ev.bytes
	if ev.spilled {
		n.rxSpilled -= ev.bytes
	}
	done := ev.done
	ev.done = nil
	n.hostEvents.Put(ev)
	if done != nil {
		done()
	}
}

// ShareHostEvents makes n's host-delivery completions recycle through
// with's free list, as the NICs of one event loop do. Call it before n
// delivers anything.
func (n *NIC) ShareHostEvents(with *NIC) { n.hostEvents = with.hostEvents }

// HostEvents reports how many host-delivery completions the free list n
// draws from has built and how many are on it: equal once every delivery
// of every NIC sharing it landed.
func (n *NIC) HostEvents() (built, free int) {
	return n.hostEvents.Built(), n.hostEvents.Free()
}

// RxOccupancy returns the RX packet-buffer occupancy as a fraction of SRAM
// capacity, clamped to 1 (spilled bytes keep it pinned at 1). This is the
// ncwnd congestion signal.
func (n *NIC) RxOccupancy() float64 {
	occ := float64(n.rxQueued) / rxBufferBytes
	if occ > 1 {
		occ = 1
	}
	return occ
}

// SetHostGbps changes host-interface bandwidth at runtime (the PCIe
// downgrade of Figure 14).
func (n *NIC) SetHostGbps(gbps float64) {
	if gbps <= 0 {
		panic("nic: host bandwidth must be positive")
	}
	n.hostGbps = gbps
}

// HostGbps returns the current host-interface bandwidth.
func (n *NIC) HostGbps() float64 { return n.hostGbps }

// connCache is an LRU set of connection keys: a doubly linked recency list
// threaded through a dense slice indexed by key (small per-node integers),
// so the per-packet touch is an array load and a miss-evict-insert cycle
// relinks indices without allocating. Entry i belongs to connection i-1;
// entry 0 is the list's sentinel, whose next is the most and prev the
// least recently used entry.
type connCache struct {
	capacity int
	n        int
	ents     []lruEntry
}

type lruEntry struct {
	prev, next uint32
	cached     bool
}

func newConnCache(capacity int) *connCache {
	return &connCache{capacity: capacity, ents: make([]lruEntry, 1)}
}

func (c *connCache) unlink(i uint32) {
	e := &c.ents[i]
	c.ents[e.prev].next = e.next
	c.ents[e.next].prev = e.prev
}

func (c *connCache) pushFront(i uint32) {
	e, head := &c.ents[i], &c.ents[0]
	e.prev, e.next = 0, head.next
	c.ents[head.next].prev = i
	head.next = i
}

// touch reports whether conn is cached, refreshing recency.
func (c *connCache) touch(conn uint32) bool {
	i := conn + 1
	if int(i) >= len(c.ents) || !c.ents[i].cached {
		return false
	}
	if c.ents[0].next != i { // back-to-back packets of one connection
		c.unlink(i)
		c.pushFront(i)
	}
	return true
}

// insert adds conn, evicting the LRU entry if needed.
func (c *connCache) insert(conn uint32) {
	if c.touch(conn) {
		return
	}
	i := conn + 1
	if int(i) >= len(c.ents) {
		c.ents = growTo(c.ents, int(i))
	}
	if c.n >= c.capacity {
		if lru := c.ents[0].prev; lru != 0 {
			c.unlink(lru)
			c.ents[lru].cached = false
			c.n--
		}
	}
	c.ents[i].cached = true
	c.pushFront(i)
	c.n++
}
