package sim

// Sharded simulation: one run split into N partitions, each owning its own
// timing wheel, coordinated by a Sharded group. Two execution modes share
// the partitioned state:
//
//   - Merged (falconbench -shards N): partitions are drained through a
//     deterministic N-way merge on the coordinator goroutine. Every
//     partition holds its popped-but-undelivered head event; the merge
//     delivers the global (time, seq) minimum each step. Sequence numbers
//     come from one group-wide counter, the random stream is shared, and
//     Now() reads one group-wide clock, so a merged run is byte-identical
//     to the single-loop scheduler by construction — the equivalence the
//     testkit sweep suite and `make check` enforce.
//   - Parallel (experimental, falconbench -shards N -shardpar): partitions
//     execute concurrently inside conservative lookahead windows. The
//     window is derived from the minimum declared cross-partition link
//     latency L: a frame sent at time T on a link with latency >= L cannot
//     affect a remote partition before T+L, so all partitions may safely
//     deliver events with t < min(next event) + L before the next barrier.
//     Cross-partition work is staged in per-(src,dst) mailboxes and merged
//     at the barrier in (time, source partition, source seq) order, so a
//     parallel run is deterministic for a fixed seed and shard count — but
//     sequence numbers are per-partition, so its trace hashes are not
//     comparable to the single-loop stream. On a single-CPU host this mode
//     cannot win wall clock; it exists for multi-core machines and is
//     documented as experimental (DESIGN.md §15).
//
// Cross-partition scheduling goes through CrossAction; internal/netsim
// routes frame deliveries through it at link boundaries and declares each
// cross-partition link's propagation delay via DeclareBoundary. Zero-latency
// cross-partition links are rejected at declaration: they would collapse
// the lookahead window to nothing (and topology builders keep co-located
// devices — a rack's ToR and hosts — in one partition instead).

import (
	"fmt"
	"math/rand"
	"time"
)

// ShardStats counts one partition's share of a sharded run. All counters
// are exact and deterministic for a fixed seed, shard count and mode, so
// telemetry exports them in the exact-determinism `shard` lake layer.
type ShardStats struct {
	// Delivered counts events this partition executed.
	Delivered uint64
	// Cross counts cross-partition schedules received by this partition:
	// direct inserts in merged mode, mailbox messages in parallel mode.
	Cross uint64
	// Windows counts lookahead windows this partition participated in
	// (parallel mode only).
	Windows uint64
	// IdleWindows counts windows in which this partition had no event to
	// deliver — the sync-stall measure of partition imbalance (parallel
	// mode only).
	IdleWindows uint64
}

// crossMsg is one staged cross-partition schedule awaiting the next
// barrier. The (at, src, seq) triple is the deterministic merge key: seq is
// the source partition's schedule counter at staging time, so messages from
// one source replay in staging order and ties across sources break on the
// stable partition index.
type crossMsg struct {
	at  Time
	act Action
	seq uint64
	src int32
}

func crossLess(a, b *crossMsg) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.src != b.src {
		return a.src < b.src
	}
	return a.seq < b.seq
}

// Sharded coordinates the partitions of one sharded simulator. It is
// obtained from Simulator.Group on any partition (nil for single-loop
// simulators).
type Sharded struct {
	parts []*Simulator
	stats []ShardStats

	// seq is the group-wide schedule counter in merged mode; every
	// partition's seqp points here, reproducing the single loop's global
	// sequence assignment exactly.
	seq uint64
	// now is the group-wide clock in merged mode; every partition's nowp
	// points here, so Now() read from any partition (or the root handle
	// an experiment captured) is the global virtual time.
	now Time

	parallel bool
	// lookahead is the minimum declared cross-partition link latency —
	// the conservative window parallel mode may run ahead inside. Zero
	// (nothing declared) degrades to per-instant lockstep.
	lookahead Time

	// Parallel engine state: per-(src,dst) mailboxes (only src appends
	// during a window, only the coordinator drains between windows), a
	// reused merge buffer, and the window barrier channels.
	mail    [][]crossMsg
	scratch []crossMsg
	start   []chan Time
	done    chan struct{}
}

// NewSharded returns the root partition of a simulator split into n
// partitions. n <= 1 returns a plain single-loop simulator. With parallel
// false (the recommended mode) the partitions are drained by a
// deterministic merge and the run is byte-identical to the single loop;
// with parallel true they execute concurrently inside conservative
// lookahead windows (experimental — see the package notes at the top of
// this file).
func NewSharded(seed int64, n int, parallel bool) *Simulator {
	if n <= 1 {
		return New(seed)
	}
	g := &Sharded{
		parts:    make([]*Simulator, n),
		stats:    make([]ShardStats, n),
		parallel: parallel,
	}
	var shared *rand.Rand
	if !parallel {
		shared = rand.New(rand.NewSource(seed))
	}
	for i := range g.parts {
		p := &Simulator{group: g, shard: i}
		if parallel {
			p.seqp = &p.seq
			p.nowp = &p.now
			// Partition 0 keeps the root seed so a 1-partition parallel
			// group would reproduce the single-loop stream; the others
			// draw from independent streams mixed from the seed.
			if i == 0 {
				p.rng = rand.New(rand.NewSource(seed))
			} else {
				p.rng = rand.New(rand.NewSource(seed ^ int64(splitmix64(uint64(i)))))
			}
		} else {
			p.seqp = &g.seq
			p.nowp = &g.now
			p.rng = shared
		}
		g.parts[i] = p
	}
	if parallel {
		g.mail = make([][]crossMsg, n*n)
		g.start = make([]chan Time, n)
		for i := range g.start {
			g.start[i] = make(chan Time, 1)
		}
		g.done = make(chan struct{}, n)
	}
	return g.parts[0]
}

// splitmix64 is the SplitMix64 finalizer, used to derive well-separated
// per-partition seeds in parallel mode.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Group returns the sharded-group coordinator this simulator is a
// partition of, or nil for a single-loop simulator.
func (s *Simulator) Group() *Sharded { return s.group }

// ShardIndex returns this simulator's partition index (0 for single-loop
// simulators and for the root partition).
func (s *Simulator) ShardIndex() int { return s.shard }

// Shards returns the partition count.
func (g *Sharded) Shards() int { return len(g.parts) }

// Part returns partition i's simulator. Components owned by partition i
// must schedule their internal work here so it executes on the right
// event loop.
func (g *Sharded) Part(i int) *Simulator { return g.parts[i] }

// Parallel reports whether the group runs the experimental
// windowed-parallel mode rather than the deterministic merge.
func (g *Sharded) Parallel() bool { return g.parallel }

// Stats returns the live per-partition counters, indexed by partition.
// Read it only while the group is not running.
func (g *Sharded) Stats() []ShardStats { return g.stats }

// Lookahead reports the conservative window: the minimum declared
// cross-partition link latency (0 until a boundary is declared).
func (g *Sharded) Lookahead() time.Duration { return time.Duration(g.lookahead) }

// DeclareBoundary registers a cross-partition link with one-way latency d,
// shrinking the group's conservative lookahead to the minimum declared.
// Zero or negative latency is rejected: such a link admits no safe window,
// so its endpoints must be placed in one partition instead (netsim's
// topology builders do exactly that for intra-rack links).
func (g *Sharded) DeclareBoundary(d time.Duration) {
	if d <= 0 {
		panic("sim: zero-latency cross-partition link; co-locate its endpoints in one partition")
	}
	if g.lookahead == 0 || Time(d) < g.lookahead {
		g.lookahead = Time(d)
	}
}

// CrossAction schedules a onto dst's partition from this partition's
// executing context — the only legal way to schedule across a partition
// boundary. Same-partition (and single-loop, and merged-mode) calls
// degrade to a direct AtAction; in parallel mode the action is staged in
// the source partition's mailbox and merged into dst at the next barrier
// in deterministic (time, source partition, source seq) order. Cross
// schedules carry no Timer: a cross-partition delivery cannot be
// cancelled.
func (s *Simulator) CrossAction(dst *Simulator, at Time, a Action) {
	g := s.group
	if dst == s || g == nil || g != dst.group {
		dst.AtAction(at, a)
		return
	}
	if !g.parallel {
		// Sequential merge: the coordinator goroutine owns all stats.
		g.stats[dst.shard].Cross++
		dst.AtAction(at, a)
		return
	}
	// Parallel: only this source goroutine may touch its own mailbox row;
	// the destination's Cross counter is folded in at the barrier.
	box := &g.mail[s.shard*len(g.parts)+dst.shard]
	*box = append(*box, crossMsg{at: at, act: a, seq: s.seq, src: int32(s.shard)})
	s.seq++
}

// ensureHead returns the partition's next live event, leaving it popped
// and held. A held event whose timer was stopped since the last merge step
// is reclaimed here, exactly when the single loop would have skipped it.
func (p *Simulator) ensureHead() *event {
	if e := p.held; e != nil {
		if !e.dead {
			return e
		}
		p.held = nil
		p.recycle(e)
	}
	p.held = p.pop()
	return p.held
}

// runMerged drains all partitions in exact global (time, seq) order on the
// calling goroutine. With bounded set, delivery stops after bound and the
// group clock advances to it.
func (g *Sharded) runMerged(bound Time, bounded bool) {
	parts := g.parts
	for {
		var best *Simulator
		var bestE *event
		for _, p := range parts {
			e := p.ensureHead()
			if e == nil {
				continue
			}
			if bestE == nil || eventLess(e, bestE) {
				best, bestE = p, e
			}
		}
		if bestE == nil || (bounded && bestE.at > bound) {
			break
		}
		best.held = nil
		g.stats[best.shard].Delivered++
		best.deliver(bestE)
	}
	if bounded {
		if g.now < bound {
			g.now = bound
		}
	}
	for _, p := range parts {
		p.syncTotal()
	}
}

// runParallel executes lookahead windows: all partitions concurrently
// deliver events strictly below the horizon, then a barrier merges the
// staged cross-partition work. Safety: the horizon is min(next event) +
// lookahead, and every cross-partition effect generated at t >= min(next
// event) arrives at t + link latency >= horizon, so no partition can
// receive work in its own past. With no declared boundary the horizon
// degrades to one instant past the minimum, which is always safe.
func (g *Sharded) runParallel(bound Time, bounded bool) {
	n := len(g.parts)
	for i := range g.parts {
		go g.worker(i)
	}
	for {
		var minNext Time
		any := false
		for _, p := range g.parts {
			if at, ok := p.peek(); ok && (!any || at < minNext) {
				minNext, any = at, true
			}
		}
		if !any || (bounded && minNext > bound) {
			break
		}
		horizon := minNext + 1
		if g.lookahead > 0 {
			horizon = minNext + g.lookahead
		}
		if bounded && horizon > bound+1 {
			horizon = bound + 1
		}
		for i := range g.start {
			g.start[i] <- horizon
		}
		for i := 0; i < n; i++ {
			<-g.done
		}
		g.drainMail()
	}
	for i := range g.start {
		g.start[i] <- -1
	}
	for i := 0; i < n; i++ {
		<-g.done
	}
	var max Time
	for _, p := range g.parts {
		if p.now > max {
			max = p.now
		}
	}
	if bounded && max < bound {
		max = bound
	}
	for _, p := range g.parts {
		p.now = max
		p.syncTotal()
	}
}

// worker is one partition's window loop: deliver everything strictly below
// each horizon received on the start channel, signal done, repeat until
// the negative shutdown sentinel.
func (g *Sharded) worker(i int) {
	p := g.parts[i]
	st := &g.stats[i]
	for {
		h := <-g.start[i]
		if h < 0 {
			g.done <- struct{}{}
			return
		}
		worked := false
		for {
			at, ok := p.peek()
			if !ok || at >= h {
				break
			}
			p.step()
			st.Delivered++
			worked = true
		}
		st.Windows++
		if !worked {
			st.IdleWindows++
		}
		g.done <- struct{}{}
	}
}

// drainMail merges every staged cross-partition message into its
// destination partition in (time, source partition, source seq) order —
// the stable deterministic merge rule — assigning destination-local
// sequence numbers in that order. Mailboxes and the merge buffer keep
// their capacity across barriers, so steady-state handoff allocates
// nothing.
func (g *Sharded) drainMail() {
	n := len(g.parts)
	for dst := 0; dst < n; dst++ {
		buf := g.scratch[:0]
		for src := 0; src < n; src++ {
			box := &g.mail[src*n+dst]
			buf = append(buf, *box...)
			*box = (*box)[:0]
		}
		if len(buf) == 0 {
			continue
		}
		sortCross(buf)
		g.stats[dst].Cross += uint64(len(buf))
		p := g.parts[dst]
		for k := range buf {
			if buf[k].at < p.now {
				panic(fmt.Sprintf("sim: cross-partition message at %v reached partition %d past its clock %v (lookahead violated)",
					buf[k].at, dst, p.now))
			}
			p.AtAction(buf[k].at, buf[k].act)
			buf[k].act = nil
		}
		g.scratch = buf[:0]
	}
}

// sortCross sorts staged messages by the deterministic merge key without
// allocating: quicksort with median-of-three pivots, insertion sort for
// small runs.
func sortCross(a []crossMsg) {
	for len(a) > 12 {
		lo, mid, hi := 0, len(a)/2, len(a)-1
		if crossLess(&a[mid], &a[lo]) {
			a[mid], a[lo] = a[lo], a[mid]
		}
		if crossLess(&a[hi], &a[lo]) {
			a[hi], a[lo] = a[lo], a[hi]
		}
		if crossLess(&a[hi], &a[mid]) {
			a[hi], a[mid] = a[mid], a[hi]
		}
		pivot := a[mid]
		i, j := lo, hi
		for i <= j {
			for crossLess(&a[i], &pivot) {
				i++
			}
			for crossLess(&pivot, &a[j]) {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		if j-lo < hi-i {
			sortCross(a[lo : j+1])
			a = a[i:]
		} else {
			sortCross(a[i:])
			a = a[:j+1]
		}
	}
	for i := 1; i < len(a); i++ {
		e := a[i]
		j := i - 1
		for j >= 0 && crossLess(&e, &a[j]) {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = e
	}
}

// run dispatches a group run to the active mode.
func (g *Sharded) run(bound Time, bounded bool) {
	if g.parallel {
		g.runParallel(bound, bounded)
		return
	}
	g.runMerged(bound, bounded)
}

// pending sums live events across partitions (held heads included — they
// are popped but not yet delivered).
func (g *Sharded) pending() int {
	total := 0
	for _, p := range g.parts {
		total += p.live
	}
	return total
}

// processed sums delivered events across partitions.
func (g *Sharded) processed() uint64 {
	var total uint64
	for _, p := range g.parts {
		total += p.processed
	}
	return total
}
