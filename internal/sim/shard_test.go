package sim

import (
	"hash/fnv"
	"testing"
	"time"
)

// shardRec records delivered (time, seq) pairs — the same stream the
// testkit trace hasher fingerprints.
type shardRec struct {
	ats  []Time
	seqs []uint64
}

func (r *shardRec) OnEvent(at Time, seq uint64) {
	r.ats = append(r.ats, at)
	r.seqs = append(r.seqs, seq)
}

// shardProg is a deterministic self-replicating workload: each fired event
// schedules up to two successors, alternating between its own partition
// and a peer, with times derived from a splitmix of its id, terminating at
// a fixed replication depth (depth is event-local state, so the program is
// identical across single-loop, merged and parallel execution and safe to
// run concurrently). Run on a single-loop simulator the "partitions" all
// alias the root, so the exact schedule-call sequence is identical — which
// is what makes the merged sharded run comparable byte for byte.
type shardProg struct {
	sims     []*Simulator
	maxDepth int
}

type shardProgEvent struct {
	p     *shardProg
	id    uint64
	home  int
	depth int
}

func (e *shardProgEvent) RunAction() {
	p := e.p
	if e.depth >= p.maxDepth {
		return
	}
	src := p.sims[e.home]
	now := src.Now()
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

func runShardProg(root *Simulator, shards, maxDepth int) *shardRec {
	// The program always uses `shards` logical homes; with fewer real
	// partitions (or a single loop) homes fold onto them round-robin, so
	// the schedule-call sequence is identical across configurations.
	sims := make([]*Simulator, shards)
	if g := root.Group(); g != nil {
		for i := range sims {
			sims[i] = g.Part(i % g.Shards())
		}
	} else {
		for i := range sims {
			sims[i] = root
		}
	}
	rec := &shardRec{}
	root.SetObserver(rec)
	p := &shardProg{sims: sims, maxDepth: maxDepth}
	for i := 0; i < shards; i++ {
		sims[i].AtAction(Time(10*(i+1)), &shardProgEvent{p: p, id: uint64(i + 1), home: i})
	}
	root.Run()
	return rec
}

// TestShardMergedByteIdentical drives the same deterministic workload on a
// single-loop simulator and on merged sharded groups of 2, 3 and 4
// partitions, and requires the delivered (time, seq) stream — the basis
// of every trace hash — to be identical element for element.
func TestShardMergedByteIdentical(t *testing.T) {
	const depth = 28
	base := runShardProg(newLoop(7), 4, depth)
	if len(base.ats) < 5000 {
		t.Fatalf("baseline delivered only %d events", len(base.ats))
	}
	for _, n := range []int{2, 3, 4} {
		got := runShardProg(NewSharded(7, n, false), 4, depth)
		if len(got.ats) != len(base.ats) {
			t.Fatalf("shards=%d: delivered %d events, want %d", n, len(got.ats), len(base.ats))
		}
		for i := range base.ats {
			if got.ats[i] != base.ats[i] || got.seqs[i] != base.seqs[i] {
				t.Fatalf("shards=%d: event %d = (%v, %d), single loop has (%v, %d)",
					n, i, got.ats[i], got.seqs[i], base.ats[i], base.seqs[i])
			}
		}
	}
}

// TestShardMergedRunUntil checks bounded runs: the merge must stop at the
// bound with pending work intact and the group clock advanced to exactly
// the bound on every partition handle.
func TestShardMergedRunUntil(t *testing.T) {
	root := NewSharded(3, 3, false)
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

// TestShardHeldHeadInvalidation covers the two merge edge cases around the
// held head: (1) an event scheduled into a partition earlier than its held
// head must be delivered first, and (2) a held head whose timer is stopped
// from another partition's event must be skipped, not delivered.
func TestShardHeldHeadInvalidation(t *testing.T) {
	root := NewSharded(1234, 2, false)
	g := root.Group()
	p0, p1 := g.Part(0), g.Part(1)

	var order []string
	// p1's first event sits at t=500; p0's earlier event at t=100
	// schedules a *new* p1 event at t=200 — by then the merge has already
	// held p1's t=500 head, so the insert must push it back.
	p1.At(500, func() { order = append(order, "p1@500") })
	p0.At(100, func() {
		order = append(order, "p0@100")
		p0.CrossAction(p1, 200, actionFunc(func() { order = append(order, "p1@200") }))
	})
	root.Run()
	want := []string{"p0@100", "p1@200", "p1@500"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("merged order %v, want %v", order, want)
		}
	}

	// A held head stopped cross-partition must never fire.
	root2 := NewSharded(99, 2, false)
	g2 := root2.Group()
	q0, q1 := g2.Part(0), g2.Part(1)
	fired := false
	tm := q1.At(700, func() { fired = true })
	q0.At(300, func() {
		if !tm.Stop() {
			t.Fatal("Stop() of a pending held head returned false")
		}
	})
	root2.Run()
	if fired {
		t.Fatal("stopped held head fired")
	}
	if root2.Pending() != 0 {
		t.Fatalf("pending %d after drain, want 0", root2.Pending())
	}
}

// TestShardMergedCrossBeforeHeldSlot pins the wheel's region below curEnd
// against the one caller that reaches behind it. Partition A's popped head
// sits several level-0 slots ahead of the group clock, so A's ns level
// covers that slot, not the present; partition B then hands A CrossActions
// that land before the slot (out of order, with ties, and at instants that
// alias the held head's FIFO index), inside it, and at the held head's own
// instant. A wheel that files every at < curEnd under at&nsMask delivers
// the early ones in index order and runs the clock backwards. Merged
// delivery must equal the single loop's, labels and (time, seq) alike.
func TestShardMergedCrossBeforeHeldSlot(t *testing.T) {
	const slot = Time(1) << l0Shift
	head := 7*slot + 104 // A's first event: slot 7, FIFO 104
	run := func(root *Simulator) ([]string, *shardRec) {
		a, b := root, root
		if g := root.Group(); g != nil {
			a, b = g.Part(1), g.Part(0)
		}
		rec := &shardRec{}
		root.SetObserver(rec)
		var order []string
		note := func(l string) func() { return func() { order = append(order, l) } }
		cross := func(at Time, l string) { b.CrossAction(a, at, actionFunc(note(l))) }
		a.At(head, note("a0"))
		a.At(head, note("a1"))
		a.At(head+6, note("a2"))
		a.At(40*slot, note("a3"))
		b.At(100, func() {
			order = append(order, "b0")
			cross(300, "x300")          // before the held slot: index 44
			cross(200, "x200")          // earlier still, larger index 72
			cross(200, "x200'")         // tie, FIFO by seq
			cross(head-5*slot, "alias") // shares the held head's index
			cross(head, "xhead")        // the held head's own instant: after a0, a1
			cross(head-50, "inslot")    // inside the held slot, before the head
		})
		b.At(150, func() {
			order = append(order, "b1")
			cross(180, "x180") // A now holds x200: it must go back, in order
			cross(250, "x250") // lands between two early events
			cross(head, "xhead'")
			cross(head+200, "next") // beyond the held slot: a wheel level
		})
		root.Run()
		return order, rec
	}
	want, wantRec := run(newLoop(5))
	if len(want) != 16 {
		t.Fatalf("single loop delivered %d events, want 16: %v", len(want), want)
	}
	got, gotRec := run(NewSharded(5, 2, false))
	if len(got) != len(want) {
		t.Fatalf("merged order %v, single loop %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] || gotRec.ats[i] != wantRec.ats[i] || gotRec.seqs[i] != wantRec.seqs[i] {
			t.Fatalf("event %d = %s (%v, %d), single loop has %s (%v, %d)\nmerged: %v\nsingle: %v",
				i, got[i], gotRec.ats[i], gotRec.seqs[i], want[i], wantRec.ats[i], wantRec.seqs[i], got, want)
		}
	}
}

// actionFunc adapts a func to Action for tests.
type actionFunc func()

func (f actionFunc) RunAction() { f() }

// TestShardParallelDeterministic runs the same cross-partition workload
// twice in the experimental parallel mode and requires identical
// per-partition delivery streams — the self-determinism contract parallel
// mode keeps even though its sequence numbering differs from the single
// loop. It also checks the per-partition stats surface.
func TestShardParallelDeterministic(t *testing.T) {
	run := func() ([4]uint64, []ShardStats) {
		root := NewSharded(11, 4, true)
		g := root.Group()
		g.DeclareBoundary(time.Microsecond)
		var sums [4]uint64
		hashers := make([]*fnvObs, 4)
		sims := make([]*Simulator, 4)
		for i := range sims {
			sims[i] = g.Part(i)
			hashers[i] = newFnvObs()
			sims[i].SetObserver(hashers[i])
		}
		p := &shardProg{sims: sims, maxDepth: 28}
		for i := range sims {
			sims[i].AtAction(Time(10*(i+1)), &shardProgEvent{p: p, id: uint64(i + 1), home: i})
		}
		root.Run()
		for i := range sims {
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
	root := NewSharded(1, 2, false)
	defer func() {
		if recover() == nil {
			t.Fatal("DeclareBoundary(0) did not panic")
		}
	}()
	root.Group().DeclareBoundary(0)
}

// TestShardLookaheadMin checks the window is the minimum declared latency.
func TestShardLookaheadMin(t *testing.T) {
	root := NewSharded(1, 2, true)
	g := root.Group()
	g.DeclareBoundary(5 * time.Microsecond)
	g.DeclareBoundary(2 * time.Microsecond)
	g.DeclareBoundary(9 * time.Microsecond)
	if g.Lookahead() != 2*time.Microsecond {
		t.Fatalf("lookahead %v, want 2us", g.Lookahead())
	}
	_ = fnv.New64a // keep fnv import honest if the manual fold changes
}

// TestShardSingleCollapses pins that shard counts <= 1 return a plain
// single-loop simulator with no group attached.
func TestShardSingleCollapses(t *testing.T) {
	for _, n := range []int{-1, 0, 1} {
		s := NewSharded(5, n, false)
		if s.Group() != nil {
			t.Fatalf("NewSharded(n=%d) returned a grouped simulator", n)
		}
	}
	SetDefaultShards(3)
	defer SetDefaultShards(1)
	s := New(5)
	if s.Group() == nil || s.Group().Shards() != 3 {
		t.Fatal("New did not honor SetDefaultShards(3)")
	}
}
