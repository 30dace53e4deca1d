package nic

import (
	"math/rand"
	"testing"
	"time"

	"falcon/internal/sim"
)

// act adapts a test closure to sim.Action for ProcessAction.
type act func()

func (a act) RunAction() { a() }

// pingPong is a single-outstanding ping-pong between two NICs as one typed
// action: four pipeline passes (client TX, server RX, server TX, client
// RX) with the wire between the two sides, over a connection drawn per
// round trip.
type pingPong struct {
	s      *sim.Simulator
	a, b   *NIC
	rng    *rand.Rand
	conns  int
	left   int
	conn   uint32
	stage  int
	rounds int
}

func (p *pingPong) next() {
	if p.left == 0 {
		return
	}
	p.left--
	p.conn = uint32(p.rng.Intn(p.conns))
	p.stage = 0
	p.a.ProcessAction(p.conn, p)
}

func (p *pingPong) RunAction() {
	p.stage++
	switch p.stage {
	case 1, 4:
		p.s.AtAction(p.s.Now().Add(2*time.Microsecond), p)
	case 2, 3:
		p.b.ProcessAction(p.conn, p)
	case 5:
		p.a.ProcessAction(p.conn, p)
	default:
		p.rounds++
		p.next()
	}
}

// TestPingPongZeroAlloc holds the ProcessAction path to zero allocations:
// once every connection's pipeline entry and cache slot exists, a
// ping-pong that reschedules one typed action allocates nothing, at a
// connection count that thrashes both cache levels.
func TestPingPongZeroAlloc(t *testing.T) {
	s := sim.New(1)
	cfg := DefaultConfig()
	cfg.CacheSize = 64
	cfg.L2CacheSize = 256
	const conns = 1024
	p := &pingPong{s: s, a: New(s, cfg), b: New(s, cfg), rng: s.Rand(), conns: conns}
	run := func(n int) {
		p.left = n
		p.next()
		s.Run()
	}
	run(20 * conns) // touch every connection on both NICs
	const rounds = 2000
	before := p.rounds
	if a := testing.AllocsPerRun(5, func() { run(rounds) }); a != 0 {
		t.Fatalf("%.0f allocations per %d ping-pongs, want 0", a, rounds)
	}
	if got := p.rounds - before; got != 6*rounds {
		t.Fatalf("%d ping-pongs completed, want %d", got, 6*rounds)
	}
	if p.a.Stats.CacheMisses == 0 || p.b.Stats.L2Hits == 0 {
		t.Fatalf("cache never missed or L2 never hit: %+v", p.a.Stats)
	}
}

func TestPerConnSerialization(t *testing.T) {
	s := sim.New(1)
	cfg := DefaultConfig()
	cfg.PerConnPacketInterval = 50 * time.Nanosecond
	cfg.GlobalPacketInterval = time.Nanosecond
	cfg.HitCost = 0
	cfg.MissCost = 0
	cfg.L2HitCost = 0
	n := New(s, cfg)
	var times []sim.Time
	for i := 0; i < 10; i++ {
		n.ProcessAction(1, act(func() { times = append(times, s.Now()) }))
	}
	s.Run()
	if len(times) != 10 {
		t.Fatalf("processed %d", len(times))
	}
	// Back-to-back packets on one conn are spaced by the per-conn
	// interval.
	for i := 1; i < len(times); i++ {
		if gap := times[i] - times[i-1]; gap < 50 {
			t.Fatalf("per-conn gap %dns < 50ns", gap)
		}
	}
}

func TestGlobalPipelineAggregates(t *testing.T) {
	s := sim.New(1)
	cfg := DefaultConfig()
	cfg.PerConnPacketInterval = 50 * time.Nanosecond
	cfg.GlobalPacketInterval = 10 * time.Nanosecond
	cfg.HitCost = 0
	cfg.MissCost = 0
	cfg.L2HitCost = 0
	n := New(s, cfg)
	done := 0
	// 10 connections, one packet each: global interval binds (10ns
	// apart), not the per-conn 50ns.
	for i := 0; i < 10; i++ {
		n.ProcessAction(uint32(i), act(func() { done++ }))
	}
	s.Run()
	if done != 10 {
		t.Fatalf("processed %d", done)
	}
	// Last start at 9*10ns.
	if s.Now() > 200 {
		t.Fatalf("took %v; global pipeline not aggregating", s.Now())
	}
}

func TestCacheHitsAndMisses(t *testing.T) {
	s := sim.New(1)
	cfg := DefaultConfig()
	cfg.CacheSize = 4
	cfg.L2CacheSize = 0
	n := New(s, cfg)
	// 4 conns fit; repeated access hits.
	for round := 0; round < 3; round++ {
		for c := uint32(0); c < 4; c++ {
			n.ProcessAction(c, act(func() {}))
		}
	}
	s.Run()
	if n.Stats.CacheMisses != 4 {
		t.Fatalf("misses = %d, want 4 (compulsory)", n.Stats.CacheMisses)
	}
	if n.Stats.CacheHits != 8 {
		t.Fatalf("hits = %d, want 8", n.Stats.CacheHits)
	}
}

func TestCacheThrashingAtScale(t *testing.T) {
	s := sim.New(1)
	cfg := DefaultConfig()
	cfg.CacheSize = 8
	cfg.L2CacheSize = 0
	n := New(s, cfg)
	// Cycle 100 conns LRU-adversarially: every access misses after warmup.
	for round := 0; round < 3; round++ {
		for c := uint32(0); c < 100; c++ {
			n.ProcessAction(c, act(func() {}))
		}
	}
	s.Run()
	if n.Stats.CacheHits != 0 {
		t.Fatalf("hits = %d in an LRU-adversarial cycle", n.Stats.CacheHits)
	}
}

func TestL2CacheCatchesL1Evictions(t *testing.T) {
	s := sim.New(1)
	cfg := DefaultConfig()
	cfg.CacheSize = 4
	cfg.L2CacheSize = 1024
	n := New(s, cfg)
	for round := 0; round < 2; round++ {
		for c := uint32(0); c < 100; c++ {
			n.ProcessAction(c, act(func() {}))
		}
	}
	s.Run()
	if n.Stats.L2Hits == 0 {
		t.Fatal("L2 never hit")
	}
	if n.Stats.CacheMisses != 100 {
		t.Fatalf("misses = %d, want 100 compulsory only", n.Stats.CacheMisses)
	}
}

func TestMissCostSlowsProcessing(t *testing.T) {
	mkRun := func(cacheSize int) sim.Time {
		s := sim.New(1)
		cfg := DefaultConfig()
		cfg.CacheSize = cacheSize
		cfg.L2CacheSize = 0
		cfg.PerConnPacketInterval = time.Nanosecond
		cfg.GlobalPacketInterval = time.Nanosecond
		n := New(s, cfg)
		var last sim.Time
		for round := 0; round < 5; round++ {
			for c := uint32(0); c < 64; c++ {
				n.ProcessAction(c, act(func() { last = s.Now() }))
			}
		}
		s.Run()
		return last
	}
	hot := mkRun(128) // all hits after warmup
	cold := mkRun(8)  // all misses
	if cold <= hot {
		t.Fatalf("cold cache (%v) should be slower than hot (%v)", cold, hot)
	}
}

func TestHostDeliveryBandwidth(t *testing.T) {
	s := sim.New(1)
	cfg := DefaultConfig()
	cfg.HostGbps = 100
	n := New(s, cfg)
	var doneAt sim.Time
	n.DeliverToHost(125000, func() { doneAt = s.Now() }) // 1Mbit at 100Gbps = 10us
	s.Run()
	if doneAt != sim.Time(10*time.Microsecond) {
		t.Fatalf("drained at %v, want 10us", doneAt)
	}
}

func TestHostBackpressureRaisesOccupancy(t *testing.T) {
	s := sim.New(1)
	cfg := DefaultConfig()
	cfg.HostGbps = 1 // very slow host
	cfg.RxBufferBytes = 100_000
	n := New(s, cfg)
	for i := 0; i < 10; i++ {
		n.DeliverToHost(10_000, nil)
	}
	if occ := n.RxOccupancy(); occ < 0.99 {
		t.Fatalf("occupancy %v with full backlog", occ)
	}
	s.Run()
	if occ := n.RxOccupancy(); occ != 0 {
		t.Fatalf("occupancy %v after drain", occ)
	}
}

func TestSpillToDRAMNeverDrops(t *testing.T) {
	s := sim.New(1)
	cfg := DefaultConfig()
	cfg.HostGbps = 1
	cfg.RxBufferBytes = 10_000
	n := New(s, cfg)
	delivered := 0
	for i := 0; i < 10; i++ {
		n.DeliverToHost(5_000, func() { delivered++ })
	}
	s.Run()
	if delivered != 10 {
		t.Fatalf("delivered %d of 10 despite spill", delivered)
	}
	if n.Stats.SpilledBytes == 0 {
		t.Fatal("expected DRAM spill")
	}
}

func TestSetHostGbps(t *testing.T) {
	s := sim.New(1)
	n := New(s, DefaultConfig())
	n.SetHostGbps(100)
	if n.HostGbps() != 100 {
		t.Fatal("SetHostGbps did not apply")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive bandwidth")
		}
	}()
	n.SetHostGbps(0)
}

func TestZeroByteHostDelivery(t *testing.T) {
	s := sim.New(1)
	n := New(s, DefaultConfig())
	called := false
	n.DeliverToHost(0, func() { called = true })
	if !called {
		t.Fatal("zero-byte delivery should complete immediately")
	}
	_ = s
}

func TestCX7ConfigMissesCostMore(t *testing.T) {
	f := DefaultConfig()
	c := CX7LikeConfig()
	if c.MissCost <= f.MissCost {
		t.Fatal("CX-7 host-memory miss should cost more than Falcon on-NIC DRAM")
	}
	if c.L2CacheSize != 0 {
		t.Fatal("CX-7 model has no shared second-level cache")
	}
}

func TestLRUEviction(t *testing.T) {
	c := newConnCache(2)
	c.insert(1)
	c.insert(2)
	c.insert(3) // evicts 1
	if c.touch(1) {
		t.Fatal("1 should be evicted")
	}
	if !c.touch(2) || !c.touch(3) {
		t.Fatal("2 and 3 should be cached")
	}
	c.insert(4) // after touching 2 then 3, LRU is 2
	if c.touch(2) {
		t.Fatal("2 should be evicted")
	}
}

// sliceLRU is the naive reference the index-linked connCache is checked
// against: most recent first, linear search, evict the last element.
type sliceLRU struct {
	capacity int
	order    []uint32
}

func (l *sliceLRU) touch(conn uint32) bool {
	for i, c := range l.order {
		if c == conn {
			copy(l.order[1:i+1], l.order[:i])
			l.order[0] = conn
			return true
		}
	}
	return false
}

// insert returns the evicted connection, if any.
func (l *sliceLRU) insert(conn uint32) (victim uint32, evicted bool) {
	if l.touch(conn) {
		return 0, false
	}
	if len(l.order) >= l.capacity {
		victim, evicted = l.order[len(l.order)-1], true
		l.order = l.order[:len(l.order)-1]
	}
	l.order = append([]uint32{conn}, l.order...)
	return victim, evicted
}

// TestLRUMatchesNaiveModel drives connCache and the slice model with the
// same random touch/insert stream (the two calls lookupCost makes) and
// requires the same hit/miss answer at every step, the same eviction
// victim, and the same full recency order.
func TestLRUMatchesNaiveModel(t *testing.T) {
	for _, capacity := range []int{1, 2, 7, 64} {
		rng := rand.New(rand.NewSource(int64(capacity)))
		c := newConnCache(capacity)
		ref := &sliceLRU{capacity: capacity}
		conns := uint32(3 * capacity)
		for step := 0; step < 20000; step++ {
			conn := rng.Uint32() % conns
			if rng.Intn(4) == 0 {
				conn += conns // occasionally reach past the grown slice
			}
			if rng.Intn(2) == 0 {
				if got, want := c.touch(conn), ref.touch(conn); got != want {
					t.Fatalf("cap %d step %d: touch(%d) = %v, model says %v", capacity, step, conn, got, want)
				}
			} else {
				lruBefore := c.ents[0].prev
				victim, evicted := ref.insert(conn)
				c.insert(conn)
				if evicted && (lruBefore != victim+1 || c.ents[victim+1].cached) {
					t.Fatalf("cap %d step %d: insert(%d) should evict %d, cache's LRU was %d",
						capacity, step, conn, victim, int(lruBefore)-1)
				}
			}
			if c.n != len(ref.order) {
				t.Fatalf("cap %d step %d: %d entries cached, model has %d", capacity, step, c.n, len(ref.order))
			}
			i := c.ents[0].next
			for _, want := range ref.order {
				if i != want+1 {
					t.Fatalf("cap %d step %d: recency order diverged from model %v", capacity, step, ref.order)
				}
				i = c.ents[i].next
			}
			if i != 0 {
				t.Fatalf("cap %d step %d: recency list longer than model", capacity, step)
			}
		}
	}
}

// TestLRUMissCycleAllocationFree holds the steady-state miss path —
// lookup miss, evict the LRU entry, insert — to zero allocations.
func TestLRUMissCycleAllocationFree(t *testing.T) {
	c := newConnCache(512)
	const conns = 1000
	for conn := uint32(0); conn < conns; conn++ {
		c.insert(conn)
	}
	next := uint32(0)
	allocs := testing.AllocsPerRun(10000, func() {
		if c.touch(next) {
			t.Fatal("cyclic access over a smaller LRU cache must always miss")
		}
		c.insert(next)
		next = (next + 1) % conns
	})
	if allocs != 0 {
		t.Fatalf("miss-evict-insert cycle: %v allocs/op, want 0", allocs)
	}
}
