package nvme

import (
	"testing"
	"time"

	"falcon/internal/core"
	"falcon/internal/falcon/tl"
	"falcon/internal/falcon/wire"
	"falcon/internal/netsim"
	"falcon/internal/sim"
)

var testLink = netsim.LinkConfig{GbpsRate: 100, PropDelay: time.Microsecond}

func setup(t *testing.T) (*sim.Simulator, *Client, *Controller, *Device) {
	t.Helper()
	return setupNodes(t, core.DefaultNodeConfig(), core.DefaultNodeConfig())
}

// setupNodes is setup with the client's and the controller's nodes
// configured by cfgA and cfgB.
func setupNodes(t *testing.T, cfgA, cfgB core.NodeConfig) (*sim.Simulator, *Client, *Controller, *Device) {
	t.Helper()
	return setupConn(t, cfgA, cfgB, core.DefaultConnConfig())
}

// setupConn is setupNodes over a connection configured by connCfg.
func setupConn(t *testing.T, cfgA, cfgB core.NodeConfig, connCfg core.ConnConfig) (*sim.Simulator, *Client, *Controller, *Device) {
	t.Helper()
	s := sim.New(31)
	topo, _ := netsim.PointToPoint(s, testLink)
	cl := core.NewCluster(s)
	a := cl.AddNode(topo.Hosts[0], cfgA)
	b := cl.AddNode(topo.Hosts[1], cfgB)
	epA, epB := cl.Connect(a, b, connCfg)
	dev := NewDevice(s)
	ctrl := NewController(epB, dev)
	client := NewClient(epA)
	return s, client, ctrl, dev
}

func TestReadCompletes(t *testing.T) {
	s, client, _, dev := setup(t)
	var doneAt sim.Time
	if err := client.Read(0, 4096, func(err error) {
		if err != nil {
			t.Errorf("read err: %v", err)
		}
		doneAt = s.Now()
	}); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if doneAt == 0 {
		t.Fatal("read never completed")
	}
	// Latency must include the device's 80us read latency.
	if doneAt < sim.Time(80*time.Microsecond) {
		t.Fatalf("read completed at %v, faster than the device", doneAt)
	}
	if dev.Reads != 1 || dev.BytesRead != 4096 {
		t.Fatalf("device saw %d reads, %d bytes", dev.Reads, dev.BytesRead)
	}
}

func TestLargeReadSegments(t *testing.T) {
	s, client, _, dev := setup(t)
	completed := false
	if err := client.Read(0, 16<<10, func(err error) {
		completed = err == nil
	}); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if !completed {
		t.Fatal("16KB read never completed")
	}
	// One device command regardless of transport segmentation.
	if dev.Reads != 1 {
		t.Fatalf("device commands = %d, want 1", dev.Reads)
	}
	if dev.BytesRead != 16<<10 {
		t.Fatalf("device bytes = %d", dev.BytesRead)
	}
}

// TestReadSegmentsByConnectionMTU: the client segments by tl.MTU and the
// controller counts chunks by the same MTU, so a read of four MTUs is four
// pulls served by one device read, and the controller forgets the read
// once its last chunk is served.
func TestReadSegmentsByConnectionMTU(t *testing.T) {
	s, client, ctrl, dev := setupConn(t, core.DefaultNodeConfig(), core.DefaultNodeConfig(), core.DefaultConnConfig())
	calls := 0
	if err := client.Read(0, 4*tl.MTU, func(err error) {
		if err != nil {
			t.Errorf("read: %v", err)
		}
		calls++
	}); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if calls != 1 {
		t.Fatalf("done fired %d times, want once", calls)
	}
	if got := client.ep.TL().Stats.Pulls; got != 4 {
		t.Fatalf("%d pulls for a read of four MTUs, want 4", got)
	}
	if dev.Reads != 1 || len(ctrl.reads) != 0 {
		t.Fatalf("device saw %d reads and the controller holds %d at quiescence, want 1 and 0", dev.Reads, len(ctrl.reads))
	}
}

func TestWriteRoundTrip(t *testing.T) {
	s, client, _, dev := setup(t)
	completed := false
	if err := client.Write(0, 1<<20, func(err error) {
		if err != nil {
			t.Errorf("write err: %v", err)
		}
		completed = true
	}); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if !completed {
		t.Fatal("write never completed")
	}
	if dev.Writes != 1 || dev.BytesWritten != 1<<20 {
		t.Fatalf("device: %d writes, %d bytes", dev.Writes, dev.BytesWritten)
	}
}

func TestWriteZeroBytes(t *testing.T) {
	s, client, _, _ := setup(t)
	completed := false
	if err := client.Write(0, 0, func(err error) { completed = err == nil }); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if !completed {
		t.Fatal("zero-byte write never completed")
	}
}

// TestChannelParallelism issues one more read than the device has
// channels, all at once: the first channels reads overlap and finish
// after one service time, the last waits for a channel and takes two.
func TestChannelParallelism(t *testing.T) {
	s := sim.New(1)
	d := NewDevice(s)
	var finish []sim.Time
	for i := 0; i <= channels; i++ {
		d.Read(4096, func() { finish = append(finish, s.Now()) })
	}
	s.Run()
	bytes, gbps := 4096.0, float64(readGbps)
	service := readLatency + time.Duration(bytes*8/gbps)
	for i, at := range finish {
		want := sim.Time(service)
		if i == channels {
			want = sim.Time(2 * service)
		}
		if at != want {
			t.Fatalf("read %d of %d finished at %v, want %v", i+1, len(finish), at, want)
		}
	}
	if len(finish) != channels+1 {
		t.Fatalf("completed %d of %d", len(finish), channels+1)
	}
}

func TestConcurrentMixedLoad(t *testing.T) {
	s, client, _, dev := setup(t)
	done := 0
	for i := 0; i < 20; i++ {
		if i%2 == 0 {
			if err := client.Read(uint64(i)<<12, 8192, func(err error) { done++ }); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := client.Write(uint64(i)<<12, 8192, func(err error) { done++ }); err != nil {
				t.Fatal(err)
			}
		}
	}
	s.Run()
	if done != 20 {
		t.Fatalf("completed %d of 20", done)
	}
	if dev.Reads == 0 || dev.Writes == 0 {
		t.Fatal("device did not see both op types")
	}
}

// TestDeadConnectionStopsRetries: a refusal on a dead connection ends the
// command instead of parking it for an Xon edge that never comes, so a
// failed connection lets the simulator go quiet. The client's Read completes its
// never-issued chunks with the connection's error (done fires once), and so
// does a Write whose command push is refused; the controller drops a Write
// whose connection dies mid-transfer instead of parking its completion push
// forever, and the client fails it.
func TestDeadConnectionStopsRetries(t *testing.T) {
	quiet := func(t *testing.T, s *sim.Simulator) {
		t.Helper()
		s.RunUntil(sim.Time(time.Millisecond))
		n := s.Processed()
		s.RunUntil(sim.Time(2 * time.Millisecond))
		if got := s.Processed(); got != n {
			t.Fatalf("%d events ran between 1ms and 2ms on a dead connection", got-n)
		}
	}
	t.Run("read", func(t *testing.T) {
		s, client, _, _ := setup(t)
		client.ep.PDL().Fail()
		calls := 0
		var got error
		if err := client.Read(0, 64<<10, func(err error) { calls++; got = err }); err != nil {
			t.Fatal(err)
		}
		quiet(t, s)
		if calls != 1 || got == nil {
			t.Fatalf("done fired %d times, last error %v; want once with an error", calls, got)
		}
	})
	t.Run("write-cmd", func(t *testing.T) {
		s, client, _, _ := setup(t)
		client.ep.PDL().Fail()
		calls := 0
		var got error
		if err := client.Write(0, 64<<10, func(err error) { calls++; got = err }); err != nil {
			t.Fatal(err)
		}
		quiet(t, s)
		if calls != 1 || got == nil || len(client.writes) != 0 {
			t.Fatalf("done fired %d times, last error %v, %d writes held; want once with an error, none held", calls, got, len(client.writes))
		}
	})
	t.Run("write", func(t *testing.T) {
		s, client, ctrl, _ := setup(t)
		ok := false
		calls := 0
		var got error
		if err := client.Write(0, 64<<10, func(err error) { ok = err == nil; calls++; got = err }); err != nil {
			t.Fatal(err)
		}
		s.RunUntil(sim.Time(5 * time.Microsecond))
		if len(ctrl.writes) != 1 {
			t.Fatalf("controller holds %d writes at 5us, want the one mid-transfer", len(ctrl.writes))
		}
		// The controller dies first, so its own refusals see a dead
		// connection; the client follows, or its retransmissions to the
		// dead peer would keep the clock busy for reasons outside nvme.
		ctrl.ep.PDL().Fail()
		client.ep.PDL().Fail()
		quiet(t, s)
		if ok || len(ctrl.writes) != 0 {
			t.Fatalf("dead controller completed=%v, still holds %d writes", ok, len(ctrl.writes))
		}
		// The client had no transaction outstanding when its connection
		// died: the death itself fails the write.
		if calls != 1 || got == nil || len(client.writes) != 0 {
			t.Fatalf("client done fired %d times, last error %v, %d writes held; want once with an error, none held", calls, got, len(client.writes))
		}
	})
}

// TestCommandsResumeOnXon starves both sides' RX-response pools to 16 KiB,
// so Read pulls at the client and write-data pulls at the controller are
// refused mid-command and wait for the Xon edge. Every command completes,
// and nothing is left parked.
func TestCommandsResumeOnXon(t *testing.T) {
	starved := core.DefaultNodeConfig()
	starved.Resources.Pools[tl.PoolRxResp].Bytes = 16 << 10
	s, client, ctrl, _ := setupNodes(t, starved, starved)
	done := 0
	for i := 0; i < 8; i++ {
		post := client.Write
		if i >= 4 {
			post = client.Read
		}
		if err := post(uint64(i)<<16, 64<<10, func(err error) {
			if err != nil {
				t.Errorf("command failed: %v", err)
			}
			done++
		}); err != nil {
			t.Fatal(err)
		}
	}
	s.Run()
	if done != 8 {
		t.Fatalf("completed %d of 8 commands", done)
	}
	for name, ep := range map[string]*core.Endpoint{"client": client.ep, "controller": ctrl.ep} {
		if ep.TL().Stats.Backpressured == 0 {
			t.Errorf("%s was never refused: the test did not exercise parking", name)
		}
	}
	if client.ep.TL().Parked() != 0 || ctrl.ep.TL().Parked() != 0 {
		t.Fatalf("%d client and %d controller entries still parked", client.ep.TL().Parked(), ctrl.ep.TL().Parked())
	}
}

// cmdLog records the write command IDs the controller receives, in
// arrival order.
type cmdLog struct {
	*ctrlTarget
	ids []uint64
}

func (l *cmdLog) HandlePush(rsn uint64, p *wire.Packet) tl.TargetVerdict {
	l.ids = append(l.ids, p.Addr)
	return l.ctrlTarget.HandlePush(rsn, p)
}

// TestWriteCommandsParkOnXon starves the client's TX-request pool to one
// context, so all but one of a burst of Writes have their command push
// refused. Every Write still returns nil, each completes exactly once, and
// the commands reach the controller in post order.
func TestWriteCommandsParkOnXon(t *testing.T) {
	starved := core.DefaultNodeConfig()
	starved.Resources.Pools[tl.PoolTxReq].Contexts = 1
	s, client, ctrl, _ := setupNodes(t, starved, core.DefaultNodeConfig())
	log := &cmdLog{ctrlTarget: (*ctrlTarget)(ctrl)}
	ctrl.ep.SetTarget(log)
	const n = 8
	calls := make([]int, n)
	for i := 0; i < n; i++ {
		if err := client.Write(uint64(i)<<16, 16<<10, func(err error) {
			if err != nil {
				t.Errorf("write %d failed: %v", i, err)
			}
			calls[i]++
		}); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	s.Run()
	for i, c := range calls {
		if c != 1 {
			t.Errorf("write %d completed %d times, want once", i, c)
		}
	}
	if client.ep.TL().Stats.Backpressured == 0 {
		t.Fatal("no command push was refused: the test did not exercise parking")
	}
	if len(log.ids) != n {
		t.Fatalf("controller received %d commands, want %d", len(log.ids), n)
	}
	for i, id := range log.ids {
		if id != uint64(i+1) {
			t.Fatalf("commands arrived in order %v, want post order", log.ids)
		}
	}
}
