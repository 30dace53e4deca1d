package nvme

import (
	"testing"
	"time"

	"falcon/internal/core"
	"falcon/internal/falcon/tl"
	"falcon/internal/netsim"
	"falcon/internal/sim"
)

var testLink = netsim.LinkConfig{GbpsRate: 100, PropDelay: time.Microsecond}

func setup(t *testing.T, devCfg DeviceConfig) (*sim.Simulator, *Client, *Controller, *Device) {
	t.Helper()
	return setupNodes(t, devCfg, core.DefaultNodeConfig(), core.DefaultNodeConfig())
}

// setupNodes is setup with the client's and the controller's nodes
// configured by cfgA and cfgB.
func setupNodes(t *testing.T, devCfg DeviceConfig, cfgA, cfgB core.NodeConfig) (*sim.Simulator, *Client, *Controller, *Device) {
	t.Helper()
	s := sim.New(31)
	topo, _ := netsim.PointToPoint(s, testLink)
	cl := core.NewCluster(s)
	a := cl.AddNode(topo.Hosts[0], cfgA)
	b := cl.AddNode(topo.Hosts[1], cfgB)
	epA, epB := cl.Connect(a, b, core.DefaultConnConfig())
	dev := NewDevice(s, devCfg)
	ctrl := NewController(epB, dev, 4096)
	client := NewClient(epA, 4096)
	return s, client, ctrl, dev
}

func TestReadCompletes(t *testing.T) {
	s, client, _, dev := setup(t, DefaultDeviceConfig())
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
	s, client, _, dev := setup(t, DefaultDeviceConfig())
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

func TestWriteRoundTrip(t *testing.T) {
	s, client, _, dev := setup(t, DefaultDeviceConfig())
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
	s, client, _, _ := setup(t, DefaultDeviceConfig())
	completed := false
	if err := client.Write(0, 0, func(err error) { completed = err == nil }); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if !completed {
		t.Fatal("zero-byte write never completed")
	}
}

func TestIOPSCap(t *testing.T) {
	cfg := DefaultDeviceConfig()
	cfg.MaxIOPS = 10000 // 100us spacing
	cfg.ReadLatency = 0
	s, client, _, _ := setup(t, cfg)
	done := 0
	for i := 0; i < 10; i++ {
		if err := client.Read(0, 512, func(err error) { done++ }); err != nil {
			t.Fatal(err)
		}
	}
	s.Run()
	if done != 10 {
		t.Fatalf("completed %d", done)
	}
	// 10 ops at 10K IOPS: at least 900us of admission spacing.
	if s.Now() < sim.Time(900*time.Microsecond) {
		t.Fatalf("finished at %v; IOPS cap not enforced", s.Now())
	}
}

func TestChannelParallelism(t *testing.T) {
	mk := func(channels int) sim.Time {
		cfg := DefaultDeviceConfig()
		cfg.Channels = channels
		cfg.ReadLatency = 100 * time.Microsecond
		s, client, _, _ := setup(t, cfg)
		done := 0
		for i := 0; i < 8; i++ {
			if err := client.Read(uint64(i*4096), 4096, func(err error) { done++ }); err != nil {
				t.Fatal(err)
			}
		}
		s.Run()
		if done != 8 {
			t.Fatalf("completed %d", done)
		}
		return s.Now()
	}
	serial := mk(1)
	parallel := mk(8)
	if parallel >= serial {
		t.Fatalf("8 channels (%v) not faster than 1 (%v)", parallel, serial)
	}
}

func TestConcurrentMixedLoad(t *testing.T) {
	s, client, _, dev := setup(t, DefaultDeviceConfig())
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
// never-issued chunks with the connection's error (done fires once); the
// controller drops a Write whose connection dies mid-transfer instead of
// parking its completion push forever.
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
		s, client, _, _ := setup(t, DefaultDeviceConfig())
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
	t.Run("write", func(t *testing.T) {
		s, client, ctrl, _ := setup(t, DefaultDeviceConfig())
		ok := false
		if err := client.Write(0, 64<<10, func(err error) { ok = err == nil }); err != nil {
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
	})
}

// TestCommandsResumeOnXon starves both sides' RX-response pools to 16 KiB,
// so Read pulls at the client and write-data pulls at the controller are
// refused mid-command and wait for the Xon edge. Every command completes,
// and nothing is left parked.
func TestCommandsResumeOnXon(t *testing.T) {
	starved := core.DefaultNodeConfig()
	starved.Resources.Pools[tl.PoolRxResp].Bytes = 16 << 10
	s, client, ctrl, _ := setupNodes(t, DefaultDeviceConfig(), starved, starved)
	done := 0
	for i := 0; i < 8; i++ {
		// Write commands go first: a refused command push is returned to
		// the caller rather than parked.
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
	if len(client.waiting.fns) != 0 || len(ctrl.waiting.fns) != 0 {
		t.Fatalf("%d client and %d controller entries still parked", len(client.waiting.fns), len(ctrl.waiting.fns))
	}
}
