package sim

import (
	"sort"
	"testing"
	"time"
)

// stamp is one delivered shardProg event: when it fired and which it was.
type stamp struct {
	at Time
	id uint64
}

// shardProg is a deterministic self-replicating workload: each fired event
// schedules up to two successors, alternating between its own partition
// and a peer, with times derived from a splitmix of its id, terminating at
// a fixed replication depth. An event's successors depend only on its id
// and its firing time, and depth is event-local state, so the program
// schedules the same events at the same instants whether it runs on one
// loop or on concurrent partitions.
type shardProg struct {
	sims     []*Simulator
	maxDepth int
	// fired holds each partition's deliveries in delivery order; only the
	// partition's own goroutine appends to its row.
	fired [][]stamp
}

type shardProgEvent struct {
	p     *shardProg
	id    uint64
	home  int
	depth int
}

func (e *shardProgEvent) RunAction() {
	p := e.p
	src := p.sims[e.home]
	now := src.Now()
	row := &p.fired[src.ShardIndex()]
	*row = append(*row, stamp{at: now, id: e.id})
	if e.depth >= p.maxDepth {
		return
	}
	h1 := splitmix64(e.id*2 + 1)
	h2 := splitmix64(e.id*2 + 2)
	// Successor on the home partition, near future.
	src.AtAction(now.Add(time.Duration(1+h1%5000)),
		&shardProgEvent{p: p, id: h1, home: e.home, depth: e.depth + 1})
	if h2%3 == 0 {
		// Successor on a peer partition, beyond the 1us boundary latency.
		peer := int(h2/3) % len(p.sims)
		src.CrossAction(p.sims[peer], now.Add(time.Duration(1000+h2%50000)),
			&shardProgEvent{p: p, id: h2, home: peer, depth: e.depth + 1})
	}
}

// newShardProg seeds the program on root's group with `homes` logical
// homes. With fewer real partitions (or a single loop) homes fold onto
// them round-robin. A sharded root declares the 1us boundary the program's
// cross-partition successors respect.
func newShardProg(root *Simulator, homes, maxDepth int) *shardProg {
	sims := make([]*Simulator, homes)
	parts := 1
	for i := range sims {
		sims[i] = root
	}
	if g := root.Group(); g != nil {
		g.DeclareBoundary(time.Microsecond)
		parts = g.Shards()
		for i := range sims {
			sims[i] = g.Part(i % parts)
		}
	}
	p := &shardProg{sims: sims, maxDepth: maxDepth, fired: make([][]stamp, parts)}
	for i := range sims {
		sims[i].AtAction(Time(10*(i+1)), &shardProgEvent{p: p, id: uint64(i + 1), home: i})
	}
	return p
}

// TestShardParallelMatchesSingleLoop is the partitioned engine's oracle
// against the single loop: the same program run on 2, 3 and 4 concurrent
// partitions must fire exactly the single loop's events — the same
// multiset of (time, id) — and every partition must deliver its share in
// non-decreasing time.
func TestShardParallelMatchesSingleLoop(t *testing.T) {
	const homes, depth = 4, 28
	sorted := func(p *shardProg) []stamp {
		var all []stamp
		for _, row := range p.fired {
			all = append(all, row...)
		}
		sort.Slice(all, func(i, j int) bool {
			return all[i].at < all[j].at || (all[i].at == all[j].at && all[i].id < all[j].id)
		})
		return all
	}
	single := New(7)
	base := newShardProg(single, homes, depth)
	single.Run()
	want := sorted(base)
	if len(want) < 5000 {
		t.Fatalf("single loop delivered only %d events", len(want))
	}
	for _, n := range []int{2, 3, 4} {
		root := NewSharded(7, n)
		p := newShardProg(root, homes, depth)
		root.Run()
		for i, row := range p.fired {
			for k := 1; k < len(row); k++ {
				if row[k].at < row[k-1].at {
					t.Fatalf("shards=%d: partition %d delivered %v after %v", n, i, row[k].at, row[k-1].at)
				}
			}
		}
		got := sorted(p)
		if len(got) != len(want) {
			t.Fatalf("shards=%d: delivered %d events, single loop %d", n, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("shards=%d: event %d = %+v, single loop has %+v", n, i, got[i], want[i])
			}
		}
	}
}

// TestShardMergedRunUntil checks bounded runs: the windows must stop at
// the bound with pending work intact, and the barrier must merge every
// partition's clock to exactly the bound.
func TestShardMergedRunUntil(t *testing.T) {
	root := NewSharded(3, 3)
	g := root.Group()
	fired := make([]int, 3)
	for i := 0; i < 3; i++ {
		p := g.Part(i)
		i := i
		for j := 1; j <= 5; j++ {
			p.At(Time(j*1000), func() { fired[i]++ })
		}
	}
	root.RunUntil(3000)
	for i, n := range fired {
		if n != 3 {
			t.Fatalf("partition %d fired %d events by t=3000, want 3", i, n)
		}
	}
	for i := 0; i < 3; i++ {
		if got := g.Part(i).Now(); got != 3000 {
			t.Fatalf("partition %d clock %v after RunUntil(3000)", i, got)
		}
	}
	if root.Pending() != 6 {
		t.Fatalf("pending %d after bounded run, want 6", root.Pending())
	}
	root.Run()
	for i, n := range fired {
		if n != 5 {
			t.Fatalf("partition %d fired %d events total, want 5", i, n)
		}
	}
}

// TestShardParallelDeterministic runs the same cross-partition workload
// twice on concurrent partitions and requires identical per-partition
// delivery streams — the self-determinism contract a sharded run keeps
// even though its sequence numbering differs from the single loop. It
// also checks the per-partition stats surface.
func TestShardParallelDeterministic(t *testing.T) {
	run := func() ([4]uint64, []ShardStats) {
		root := NewSharded(11, 4)
		g := root.Group()
		var sums [4]uint64
		hashers := make([]*fnvObs, 4)
		for i := range hashers {
			hashers[i] = newFnvObs()
			g.Part(i).SetObserver(hashers[i])
		}
		newShardProg(root, 4, 28)
		root.Run()
		for i := range hashers {
			sums[i] = hashers[i].sum()
		}
		return sums, g.Stats()
	}
	a, statsA := run()
	b, statsB := run()
	if a != b {
		t.Fatalf("parallel same-seed runs diverged: %x vs %x", a, b)
	}
	var windows, delivered uint64
	for i := range statsA {
		if statsA[i] != statsB[i] {
			t.Fatalf("partition %d stats diverged: %+v vs %+v", i, statsA[i], statsB[i])
		}
		windows += statsA[i].Windows
		delivered += statsA[i].Delivered
	}
	if delivered == 0 || windows == 0 {
		t.Fatalf("parallel run recorded no work: delivered=%d windows=%d", delivered, windows)
	}
}

type fnvObs struct{ h uint64 }

func newFnvObs() *fnvObs { return &fnvObs{h: 14695981039346656037} }

func (o *fnvObs) OnEvent(at Time, seq uint64) {
	for _, v := range [2]uint64{uint64(at), seq} {
		for i := 0; i < 8; i++ {
			o.h ^= (v >> (8 * i)) & 0xff
			o.h *= 1099511628211
		}
	}
}

func (o *fnvObs) sum() uint64 { return o.h }

// TestShardZeroLatencyBoundaryRejected pins the contract that a
// cross-partition link with no latency cannot be declared: it admits no
// safe lookahead window, so topology builders must co-locate its
// endpoints instead.
func TestShardZeroLatencyBoundaryRejected(t *testing.T) {
	root := NewSharded(1, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("DeclareBoundary(0) did not panic")
		}
	}()
	root.Group().DeclareBoundary(0)
}

// TestShardLookaheadMin checks the window is the minimum declared latency.
func TestShardLookaheadMin(t *testing.T) {
	root := NewSharded(1, 2)
	g := root.Group()
	g.DeclareBoundary(5 * time.Microsecond)
	g.DeclareBoundary(2 * time.Microsecond)
	g.DeclareBoundary(9 * time.Microsecond)
	if g.Lookahead() != 2*time.Microsecond {
		t.Fatalf("lookahead %v, want 2us", g.Lookahead())
	}
}

// TestShardSingleCollapses pins that shard counts <= 1 return a plain
// single-loop simulator with no group attached, and that New never
// partitions.
func TestShardSingleCollapses(t *testing.T) {
	for _, n := range []int{-1, 0, 1} {
		s := NewSharded(5, n)
		if s.Group() != nil {
			t.Fatalf("NewSharded(n=%d) returned a grouped simulator", n)
		}
	}
	if New(5).Group() != nil {
		t.Fatal("New returned a grouped simulator")
	}
}
