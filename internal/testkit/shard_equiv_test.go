package testkit

import (
	"fmt"
	"testing"
	"time"

	"falcon/internal/netsim"
	"falcon/internal/sim"
)

// TestSweepShardEquivalence runs fault-sweep scenarios split into 2 and 4
// simulation partitions (merged mode) and requires byte-identical trace
// hashes against the single event loop: the deterministic group merge must
// reproduce the exact (time, seq) delivery stream — scheduler events,
// packets, frames, completions — across the full protocol stack. This is
// the end-to-end gate `make check` runs over the whole matrix.
func TestSweepShardEquivalence(t *testing.T) {
	scs := shortMatrix()
	if !testing.Short() {
		scs = Matrix()
	}
	for _, sc := range scs {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			sc.Shards = 0
			single := Run(sc)
			for _, n := range []int{2, 4} {
				sc.Shards = n
				sharded := Run(sc)
				if single.TraceHash != sharded.TraceHash || single.Records != sharded.Records {
					t.Fatalf("shards=%d diverges from single loop on %q:\n  single  %016x (%d records)\n  sharded %016x (%d records)",
						n, sc.Name, single.TraceHash, single.Records, sharded.TraceHash, sharded.Records)
				}
				if single.SimTime != sharded.SimTime || single.Completed != sharded.Completed {
					t.Fatalf("shards=%d diverges on %q: simtime %v vs %v, completed %d vs %d",
						n, sc.Name, single.SimTime, sharded.SimTime, single.Completed, sharded.Completed)
				}
			}
		})
	}
}

// TestSweepShardSchedulerCross checks the scheduler's order composes with
// partitioning: a merged 3-way run — three wheels feeding the held-head
// group merge — must match the single loop's trace, and the checker must
// have seen the merged stream in (time, seq) order, event for event.
func TestSweepShardSchedulerCross(t *testing.T) {
	for _, sc := range shortMatrix()[:3] {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			base := Run(sc)
			sc.Shards = 3
			cross := Run(sc)
			if base.TraceHash != cross.TraceHash || cross.Events == 0 || cross.Events != base.Events {
				t.Fatalf("single %016x (%d events) != merged shards=3 %016x (%d events) on %q",
					base.TraceHash, base.Events, cross.TraceHash, cross.Events, sc.Name)
			}
		})
	}
}

// TestSweepShardParallelDeterminism runs scenarios in the experimental
// windowed-parallel mode twice per seed and requires identical combined
// hashes, counts and end times: a parallel run must be a pure function of
// (seed, shard count, topology) even though partitions execute
// concurrently. `make check` runs this under -race with several
// seeds, which is what proves the window/barrier protocol has no unsynced
// shared state.
func TestSweepShardParallelDeterminism(t *testing.T) {
	scs := shortMatrix()
	if testing.Short() {
		scs = scs[:4]
	}
	for _, sc := range scs {
		sc := sc
		sc.Shards = 4
		sc.ShardParallel = true
		t.Run(sc.Name, func(t *testing.T) {
			a := Run(sc)
			b := Run(sc)
			if a.TraceHash != b.TraceHash || a.Records != b.Records {
				t.Fatalf("parallel same-seed runs diverge on %q: %016x/%d vs %016x/%d",
					sc.Name, a.TraceHash, a.Records, b.TraceHash, b.Records)
			}
			if a.SimTime != b.SimTime || a.Completed != b.Completed || a.Issued != b.Issued {
				t.Fatalf("parallel same-seed runs diverge on %q: simtime %v vs %v, completed %d vs %d",
					sc.Name, a.SimTime, b.SimTime, a.Completed, b.Completed)
			}
			if a.Completed != a.Issued || a.Issued == 0 {
				t.Fatalf("parallel run did not drain on %q: issued=%d completed=%d", sc.Name, a.Issued, a.Completed)
			}
		})
	}
}

// TestShardPartitionCountEdges covers partition counts that don't divide
// the device count: a two-host point-to-point sweep split into 3 and 5
// partitions (some partitions own no devices and stay idle) must still be
// byte-identical to the single loop in merged mode and drain completely in
// parallel mode.
func TestShardPartitionCountEdges(t *testing.T) {
	sc := Scenario{Name: "edge", Seed: 77, Workload: WorkloadMixed, DropPct: 2}
	sc.Shards = 0
	base := Run(sc)
	for _, n := range []int{3, 5} {
		sc.Shards = n
		sc.ShardParallel = false
		got := Run(sc)
		if got.TraceHash != base.TraceHash {
			t.Fatalf("merged shards=%d (idle partitions) diverges: %016x vs %016x", n, got.TraceHash, base.TraceHash)
		}
		sc.ShardParallel = true
		par := Run(sc)
		if par.Completed != par.Issued || par.Issued == 0 {
			t.Fatalf("parallel shards=%d did not drain: issued=%d completed=%d", n, par.Issued, par.Completed)
		}
	}
}

// TestShardSameInstantCrossFrames pins the deterministic-merge tiebreak
// for simultaneous cross-partition arrivals: two hosts on different
// partitions each send to a host on a third partition at the same instant
// over identical links, so both frames arrive at exactly the same virtual
// time. The merged run must order them identically to the single loop
// (global sequence numbers), run after run.
func TestShardSameInstantCrossFrames(t *testing.T) {
	link := netsim.LinkConfig{GbpsRate: 100, PropDelay: time.Microsecond}
	build := func(s *sim.Simulator) (*netsim.Network, []*netsim.Host) {
		n := netsim.New(s)
		sw := n.AddSwitch() // partition 0
		// Hosts round-robin onto partitions 0,1,2 (mod shard count).
		hosts := make([]*netsim.Host, 3)
		for i := range hosts {
			hosts[i] = n.AddHost()
			n.AttachHost(hosts[i], sw, link)
		}
		return n, hosts
	}
	run := func(root *sim.Simulator) []string {
		_, hosts := build(root)
		var order []string
		for i, h := range hosts {
			i := i
			h.SetHandler(netsim.HandlerFunc(func(f *netsim.Frame) {
				order = append(order, fmt.Sprintf("h%d<-h%d@%v", i, f.Src, f.SentAt))
			}))
		}
		// h1 and h2 (different partitions on a 3-way split) send to h0 at
		// the same instant with equal sizes: identical serialization and
		// propagation, so both deliveries land at the same virtual time.
		for _, src := range []*netsim.Host{hosts[1], hosts[2]} {
			src := src
			src.Sim().At(100, func() {
				f := src.NewFrame()
				f.Dst = hosts[0].ID
				f.Size = 256
				src.Send(f)
			})
		}
		root.Run()
		return order
	}
	base := run(sim.New(9))
	if len(base) != 2 {
		t.Fatalf("expected 2 deliveries, got %v", base)
	}
	for _, n := range []int{2, 3} {
		got := run(sim.NewSharded(9, n, false))
		if len(got) != len(base) || got[0] != base[0] || got[1] != base[1] {
			t.Fatalf("shards=%d same-instant ordering diverged: %v vs single loop %v", n, got, base)
		}
	}
}
