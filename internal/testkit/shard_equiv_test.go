package testkit

import (
	"fmt"
	"testing"
	"time"

	"falcon/internal/netsim"
	"falcon/internal/sim"
)

// checkPartitioned fails t unless a partitioned run drained exactly once
// (every op issued, completed without error and served once, as the
// single loop does) with every partition's checker clean and every
// scheduler event of every partition order- and timer-checked.
func checkPartitioned(t *testing.T, sc Scenario, res Result) {
	t.Helper()
	ops := sc.withDefaults().Ops
	if sched := res.Records - res.ProtoRecords; res.Violations != 0 || res.Events == 0 || res.Events != sched {
		t.Fatalf("%q shards=%d: %d violations, checkers saw %d of %d scheduler events",
			sc.Name, sc.Shards, res.Violations, res.Events, sched)
	}
	if res.ConnFailed || res.Issued != ops || res.Completed != ops || res.Errored != 0 || res.Served != ops {
		t.Fatalf("%q shards=%d did not drain exactly once: issued=%d completed=%d errored=%d served=%d (conn failed %v), want %d",
			sc.Name, sc.Shards, res.Issued, res.Completed, res.Errored, res.Served, res.ConnFailed, ops)
	}
}

// TestSweepShardEquivalence runs the fault matrix split into 2 and 4
// concurrent partitions and requires the single loop's outcome: exactly-
// once delivery of every op, with each partition's invariant checker and
// lazy-timer checks clean on every event it delivered. Partitioned hashes
// are not comparable to the single loop's; the golden pins them instead.
func TestSweepShardEquivalence(t *testing.T) {
	scs := shortMatrix()
	if !testing.Short() {
		scs = Matrix()
	}
	for _, sc := range scs {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			for _, n := range []int{2, 4} {
				sc.Shards = n
				checkPartitioned(t, sc, Run(sc))
			}
		})
	}
}

// TestSweepShardSchedulerCross checks the scheduler's order composes with
// partitioning: on a 3-way split, each partition's checker must see every
// event its partition delivers in (time, seq) order.
func TestSweepShardSchedulerCross(t *testing.T) {
	for _, sc := range shortMatrix()[:3] {
		sc := sc
		sc.Shards = 3
		t.Run(sc.Name, func(t *testing.T) { checkPartitioned(t, sc, Run(sc)) })
	}
}

// TestSweepShardParallelDeterminism runs scenarios on four concurrent
// partitions twice per seed and requires identical combined hashes,
// counts and end times: a partitioned run must be a pure function of
// (seed, shard count, topology) even though partitions execute
// concurrently. `make race` runs this under the race detector, which is
// what proves the window/barrier protocol has no unsynced shared state.
func TestSweepShardParallelDeterminism(t *testing.T) {
	scs := shortMatrix()
	if testing.Short() {
		scs = scs[:4]
	}
	for _, sc := range scs {
		sc := sc
		sc.Shards = 4
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
// partitions (some partitions own no devices and stay idle) must still
// drain exactly once with every partition's checker clean.
func TestShardPartitionCountEdges(t *testing.T) {
	sc := Scenario{Name: "edge", Seed: 77, Workload: WorkloadMixed, DropPct: 2}
	for _, n := range []int{3, 5} {
		sc.Shards = n
		checkPartitioned(t, sc, Run(sc))
	}
}

// TestShardSameInstantCrossFrames pins the barrier's tiebreak for
// simultaneous arrivals: two hosts each send to a third at the same
// instant over identical links, so both frames reach the switch at exactly
// the same virtual time. A frame scheduled inside the window precedes one
// merged in at the barrier, and merged frames order by source partition,
// so the order is fixed by placement, run after run. Hosts land round-robin
// on the partitions and the switch on partition 0: on a 3-way split both
// frames cross into the switch's partition and h1's (partition 1) goes
// first, as on the single loop; on a 2-way split h2 shares partition 0
// with the switch, so its frame is scheduled in the window and overtakes
// h1's.
func TestShardSameInstantCrossFrames(t *testing.T) {
	link := netsim.LinkConfig{GbpsRate: 100, PropDelay: time.Microsecond}
	run := func(root *sim.Simulator) []string {
		n := netsim.New(root)
		sw := n.AddSwitch()
		hosts := make([]*netsim.Host, 3)
		for i := range hosts {
			hosts[i] = n.AddHost()
			n.AttachHost(hosts[i], sw, link)
		}
		// Only h0's partition appends.
		var order []string
		hosts[0].SetHandler(netsim.HandlerFunc(func(f *netsim.Frame) {
			order = append(order, fmt.Sprintf("h0<-h%d@%v", f.Src, f.SentAt))
		}))
		// Equal sizes: identical serialization and propagation, so both
		// deliveries land at the same virtual time.
		for _, src := range hosts[1:] {
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
	first, second := "h0<-h1@100ns", "h0<-h2@100ns"
	for _, tc := range []struct {
		shards int
		want   []string
	}{
		{1, []string{first, second}},
		{2, []string{second, first}},
		{3, []string{first, second}},
	} {
		for rep := 0; rep < 3; rep++ {
			got := run(sim.NewSharded(9, tc.shards))
			if fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Fatalf("shards=%d run %d: same-instant order %v, want %v", tc.shards, rep, got, tc.want)
			}
		}
	}
}
