package sim

// Sharded simulation: one run split into N partitions, each owning its own
// timing wheel, clock, sequence counter and random stream, coordinated by
// a Sharded group (falconbench -shards N). Partitions execute concurrently
// inside conservative lookahead windows. The window is derived from the
// minimum declared cross-partition link latency L: a frame sent at time T
// on a link with latency >= L cannot affect a remote partition before T+L,
// so all partitions may safely deliver events with t < min(next event) + L
// before the next barrier. Cross-partition work is staged in per-(src,dst)
// mailboxes and merged at the barrier in (time, source partition, source
// seq) order, so a run is deterministic for a fixed seed and shard count —
// but sequence numbers are per-partition, so its trace hashes are not
// comparable to the single-loop stream (DESIGN.md §15).
//
// Cross-partition scheduling goes through CrossAction; internal/netsim
// routes frame deliveries through it at link boundaries and declares each
// cross-partition link's propagation delay via DeclareBoundary. Zero-latency
// cross-partition links are rejected at declaration: they would collapse
// the lookahead window to nothing (and topology builders keep co-located
// devices — a rack's ToR and hosts — in one partition instead).

import (
	"cmp"
	"fmt"
	"slices"
	"time"
)

// ShardStats counts one partition's share of a sharded run. All counters
// are exact and deterministic for a fixed seed and shard count, so
// telemetry exports them in the exact-determinism `shard` lake layer.
type ShardStats struct {
	// Delivered counts events this partition executed.
	Delivered uint64
	// Cross counts the mailbox messages merged into this partition.
	Cross uint64
	// Windows counts lookahead windows this partition participated in.
	Windows uint64
	// IdleWindows counts windows in which this partition had no event to
	// deliver — the sync-stall measure of partition imbalance.
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

// crossCmp orders staged messages by the merge key. It is a total order
// (seq is unique per source), so any sort yields the same merge.
func crossCmp(a, b crossMsg) int {
	if c := cmp.Compare(a.at, b.at); c != 0 {
		return c
	}
	if c := cmp.Compare(a.src, b.src); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

// Sharded coordinates the partitions of one sharded simulator. It is
// obtained from Simulator.Group on any partition (nil for single-loop
// simulators).
type Sharded struct {
	parts []*Simulator
	stats []ShardStats

	// lookahead is the minimum declared cross-partition link latency —
	// the conservative window partitions may run ahead inside. Zero
	// (nothing declared) degrades to per-instant lockstep.
	lookahead Time

	// Per-(src,dst) mailboxes (only src appends during a window, only the
	// coordinator drains between windows), a reused merge buffer, and the
	// window barrier channels.
	mail    [][]crossMsg
	scratch []crossMsg
	start   []chan Time
	done    chan struct{}
}

// NewSharded returns the root partition of a simulator split into n
// partitions that execute concurrently inside conservative lookahead
// windows (see the notes at the top of this file). n <= 1 returns a plain
// single-loop simulator.
func NewSharded(seed int64, n int) *Simulator {
	if n <= 1 {
		return New(seed)
	}
	g := &Sharded{
		parts: make([]*Simulator, n),
		stats: make([]ShardStats, n),
		mail:  make([][]crossMsg, n*n),
		start: make([]chan Time, n),
		done:  make(chan struct{}, n),
	}
	for i := range g.parts {
		// Partition 0 keeps the root seed; the others draw from
		// independent streams mixed from it.
		pseed := seed
		if i > 0 {
			pseed ^= int64(splitmix64(uint64(i)))
		}
		p := New(pseed)
		p.group, p.shard = g, i
		g.parts[i] = p
		g.start[i] = make(chan Time, 1)
	}
	return g.parts[0]
}

// splitmix64 is the SplitMix64 finalizer, used to derive well-separated
// per-partition seeds.
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
// boundary. Same-partition (and single-loop) calls degrade to a direct
// AtAction; otherwise the action is staged in the source partition's
// mailbox and merged into dst at the next barrier in deterministic (time,
// source partition, source seq) order. Cross schedules carry no Timer: a
// cross-partition delivery cannot be cancelled.
func (s *Simulator) CrossAction(dst *Simulator, at Time, a Action) {
	g := s.group
	if dst == s || g == nil || g != dst.group {
		dst.AtAction(at, a)
		return
	}
	// Only this source goroutine may touch its own mailbox row; the
	// destination's Cross counter is folded in at the barrier.
	box := &g.mail[s.shard*len(g.parts)+dst.shard]
	*box = append(*box, crossMsg{at: at, act: a, seq: s.seq, src: int32(s.shard)})
	s.seq++
}

// run executes lookahead windows: all partitions concurrently
// deliver events strictly below the horizon, then a barrier merges the
// staged cross-partition work. Safety: the horizon is min(next event) +
// lookahead, and every cross-partition effect generated at t >= min(next
// event) arrives at t + link latency >= horizon, so no partition can
// receive work in its own past. With no declared boundary the horizon
// degrades to one instant past the minimum, which is always safe.
func (g *Sharded) run(bound Time, bounded bool) {
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
		slices.SortFunc(buf, crossCmp)
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

// pending sums live events across partitions.
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
