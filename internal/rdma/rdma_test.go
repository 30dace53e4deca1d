package rdma

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"falcon/internal/core"
	"falcon/internal/falcon/pdl"
	"falcon/internal/falcon/tl"
	"falcon/internal/netsim"
	"falcon/internal/sim"
)

var testLink = netsim.LinkConfig{GbpsRate: 100, PropDelay: time.Microsecond}

func qpPair(t *testing.T) (*sim.Simulator, *QP, *QP, *netsim.Port) {
	t.Helper()
	s := sim.New(21)
	topo, fwd := netsim.PointToPoint(s, testLink)
	cl := core.NewCluster(s)
	a := cl.AddNode(topo.Hosts[0], core.DefaultNodeConfig())
	b := cl.AddNode(topo.Hosts[1], core.DefaultNodeConfig())
	epA, epB := cl.Connect(a, b, core.DefaultConnConfig())
	qa := NewQP(epA, Config{})
	qb := NewQP(epB, Config{})
	return s, qa, qb, fwd
}

func TestWriteMovesData(t *testing.T) {
	s, qa, qb, _ := qpPair(t)
	remote := make([]byte, 1<<16)
	qb.RegisterMemory(remote)
	payload := bytes.Repeat([]byte("falcon-write!"), 100) // 1300 bytes
	var comp *Completion
	if err := qa.Write(1, 4096, payload, 0, func(c Completion) { comp = &c }); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if comp == nil || comp.Err != nil {
		t.Fatalf("write completion: %+v", comp)
	}
	if !bytes.Equal(remote[4096:4096+len(payload)], payload) {
		t.Fatal("remote memory does not contain written bytes")
	}
}

func TestLargeWriteSegmented(t *testing.T) {
	s, qa, qb, _ := qpPair(t)
	remote := make([]byte, 1<<20)
	qb.RegisterMemory(remote)
	payload := make([]byte, 64<<10) // 16 segments at 4KB MTU
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	done := false
	if err := qa.Write(2, 0, payload, 0, func(c Completion) {
		if c.Err != nil {
			t.Errorf("err: %v", c.Err)
		}
		done = true
	}); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if !done {
		t.Fatal("write never completed")
	}
	if !bytes.Equal(remote[:len(payload)], payload) {
		t.Fatal("segmented write corrupted data")
	}
	// One completion for 16 segments.
	if got := qa.Endpoint().PDL().Stats.DataSent; got < 16 {
		t.Fatalf("sent %d packets, expected >= 16 segments", got)
	}
}

// TestWriteSegmentsByConnectionMTU: a QP segments by its connection's MTU,
// so a 4 KiB Write over a 1 KiB-MTU connection is four pushes.
func TestWriteSegmentsByConnectionMTU(t *testing.T) {
	connCfg := core.DefaultConnConfig()
	connCfg.TL.MTU = 1024
	s, qa, qb, _ := pairWith(t, core.DefaultNodeConfig(), connCfg, Config{})
	remote := make([]byte, 8<<10)
	qb.RegisterMemory(remote)
	payload := patternMemory(4096)
	var comps []Completion
	if err := qa.Write(1, 0, payload, 0, func(c Completion) { comps = append(comps, c) }); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if len(comps) != 1 || comps[0].Err != nil {
		t.Fatalf("completions %+v, want one without error", comps)
	}
	if got := qa.Endpoint().TL().Stats.Pushes; got != 4 {
		t.Fatalf("%d pushes for a 4 KiB Write at MTU 1024, want 4", got)
	}
	if !bytes.Equal(remote[:len(payload)], payload) {
		t.Fatal("remote memory does not hold the written bytes")
	}
}

func TestReadReturnsData(t *testing.T) {
	s, qa, qb, _ := qpPair(t)
	remote := make([]byte, 1<<16)
	for i := range remote {
		remote[i] = byte(i)
	}
	qb.RegisterMemory(remote)
	var got []byte
	if err := qa.Read(3, 100, 10000, func(c Completion) {
		if c.Err != nil {
			t.Errorf("read err: %v", c.Err)
		}
		got = c.Data
	}); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if !bytes.Equal(got, remote[100:10100]) {
		t.Fatalf("read returned %d bytes, mismatch", len(got))
	}
}

func TestSendRecv(t *testing.T) {
	s, qa, qb, _ := qpPair(t)
	buf := make([]byte, 8192)
	var rn int
	qb.PostRecv(buf, 0, func(n int, err error) { rn = n })
	msg := bytes.Repeat([]byte("x"), 6000) // 2 segments
	ok := false
	if err := qa.Send(4, msg, 0, func(c Completion) { ok = c.Err == nil }); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if !ok {
		t.Fatal("send did not complete")
	}
	if rn != 6000 {
		t.Fatalf("receive got %d bytes", rn)
	}
	if !bytes.Equal(buf[:6000], msg) {
		t.Fatal("send data corrupted")
	}
}

func TestSendWithoutRecvRetriesViaRNR(t *testing.T) {
	s, qa, qb, _ := qpPair(t)
	ok := false
	if err := qa.Send(5, []byte("late recv"), 0, func(c Completion) { ok = c.Err == nil }); err != nil {
		t.Fatal(err)
	}
	// Post the receive only after the first RNR round trip.
	s.After(200*time.Microsecond, func() {
		qb.PostRecv(make([]byte, 64), 0, nil)
	})
	s.Run()
	if !ok {
		t.Fatal("send never completed after RNR retry")
	}
	if qb.RNRs == 0 {
		t.Fatal("expected RNR at target")
	}
	if qa.Endpoint().TL().Stats.RNRRetries == 0 {
		t.Fatal("expected initiator RNR retries")
	}
}

func TestWriteOutOfBoundsCIE(t *testing.T) {
	s, qa, qb, _ := qpPair(t)
	qb.RegisterMemoryLen(1024)
	var errs []error
	if err := qa.Write(6, 2048, nil, 100, func(c Completion) { errs = append(errs, c.Err) }); err != nil {
		t.Fatal(err)
	}
	// A subsequent in-bounds write continues fine (CIE semantics).
	if err := qa.Write(7, 0, nil, 100, func(c Completion) { errs = append(errs, c.Err) }); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if len(errs) != 2 {
		t.Fatalf("completions = %d", len(errs))
	}
	if !errors.Is(errs[0], tl.ErrCIE) {
		t.Fatalf("out-of-bounds write err = %v, want CIE", errs[0])
	}
	if errs[1] != nil {
		t.Fatalf("in-bounds write after CIE failed: %v", errs[1])
	}
}

func TestCompareSwap(t *testing.T) {
	s, qa, qb, _ := qpPair(t)
	remote := make([]byte, 64)
	remote[7] = 42 // big-endian uint64 at 0 = 42
	qb.RegisterMemory(remote)
	var old []byte
	if err := qa.CompareSwap(8, 0, 42, 99, func(c Completion) {
		if c.Err != nil {
			t.Errorf("cas err: %v", c.Err)
		}
		old = c.Data
	}); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if len(old) != 8 || old[7] != 42 {
		t.Fatalf("CAS old value = %v", old)
	}
	if remote[7] != 99 {
		t.Fatalf("CAS did not swap: %v", remote[:8])
	}
}

func TestFetchAdd(t *testing.T) {
	s, qa, qb, _ := qpPair(t)
	remote := make([]byte, 64)
	remote[7] = 10
	qb.RegisterMemory(remote)
	if err := qa.FetchAdd(9, 0, 5, nil); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if remote[7] != 15 {
		t.Fatalf("FetchAdd result = %d", remote[7])
	}
	comps := qa.PollCQ()
	if len(comps) != 1 || comps[0].Err != nil {
		t.Fatalf("completions: %+v", comps)
	}
	if comps[0].Data[7] != 10 {
		t.Fatalf("FetchAdd old value = %v", comps[0].Data)
	}
}

func TestWriteUnderLoss(t *testing.T) {
	s, qa, qb, fwd := qpPair(t)
	fwd.SetDropProb(0.05)
	remote := make([]byte, 1<<20)
	qb.RegisterMemory(remote)
	payload := make([]byte, 32<<10)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	completed := 0
	for i := 0; i < 10; i++ {
		if err := qa.Write(uint64(i), uint64(i)*uint64(len(payload)), payload, 0, func(c Completion) {
			if c.Err == nil {
				completed++
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	s.Run()
	if completed != 10 {
		t.Fatalf("completed %d of 10 writes under loss", completed)
	}
	for i := 0; i < 10; i++ {
		if !bytes.Equal(remote[i*len(payload):(i+1)*len(payload)], payload) {
			t.Fatalf("write %d corrupted under loss", i)
		}
	}
}

func TestSizeOnlyOps(t *testing.T) {
	// No backing memory anywhere: ops complete with bounds checking
	// only (the benchmark mode).
	s, qa, qb, _ := qpPair(t)
	qb.RegisterMemoryLen(1 << 30)
	completed := 0
	for i := 0; i < 20; i++ {
		if err := qa.Write(uint64(i), 0, nil, 8192, func(c Completion) {
			if c.Err == nil {
				completed++
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := qa.Read(100, 0, 8192, func(c Completion) {
		if c.Err == nil {
			completed++
		}
	}); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if completed != 21 {
		t.Fatalf("completed %d of 21 size-only ops", completed)
	}
}

func TestCompletionQueuePolling(t *testing.T) {
	s, qa, qb, _ := qpPair(t)
	qb.RegisterMemoryLen(1 << 20)
	for i := 0; i < 5; i++ {
		if err := qa.Write(uint64(i), 0, nil, 100, nil); err != nil {
			t.Fatal(err)
		}
	}
	s.Run()
	comps := qa.PollCQ()
	if len(comps) != 5 {
		t.Fatalf("polled %d completions", len(comps))
	}
	if len(qa.PollCQ()) != 0 {
		t.Fatal("PollCQ should drain")
	}
}

func TestWeaklyOrderedCompletions(t *testing.T) {
	// iWARP model (§4.4): unordered Falcon connection (OOO placement)
	// with in-order completions provided by the QP.
	s := sim.New(41)
	topo, fwd := netsim.PointToPoint(s, testLink)
	cl := core.NewCluster(s)
	a := cl.AddNode(topo.Hosts[0], core.DefaultNodeConfig())
	b := cl.AddNode(topo.Hosts[1], core.DefaultNodeConfig())
	connCfg := core.DefaultConnConfig()
	connCfg.TL.Ordered = false
	epA, epB := cl.Connect(a, b, connCfg)
	qa := NewQP(epA, Config{WeaklyOrdered: true})
	qb := NewQP(epB, Config{})
	qb.RegisterMemoryLen(1 << 30)
	fwd.SetDropProb(0.04) // losses force out-of-order finishes
	var order []uint64
	for i := 0; i < 60; i++ {
		wrid := uint64(i)
		if err := qa.Write(wrid, 0, nil, 8192, func(c Completion) {
			if c.Err != nil {
				t.Errorf("write %d: %v", c.WRID, c.Err)
			}
			order = append(order, c.WRID)
		}); err != nil {
			t.Fatal(err)
		}
	}
	s.Run()
	if len(order) != 60 {
		t.Fatalf("completed %d of 60", len(order))
	}
	for i, w := range order {
		if w != uint64(i) {
			t.Fatalf("weakly-ordered completions out of post order: %v", order)
		}
	}
}

func TestUnorderedWithoutWeakOrderingCanReorder(t *testing.T) {
	// Contrast: the same setup without the QP's completion sequencing
	// may (and under loss, does) complete out of post order.
	s := sim.New(41)
	topo, fwd := netsim.PointToPoint(s, testLink)
	cl := core.NewCluster(s)
	a := cl.AddNode(topo.Hosts[0], core.DefaultNodeConfig())
	b := cl.AddNode(topo.Hosts[1], core.DefaultNodeConfig())
	connCfg := core.DefaultConnConfig()
	connCfg.TL.Ordered = false
	epA, epB := cl.Connect(a, b, connCfg)
	qa := NewQP(epA, Config{})
	qb := NewQP(epB, Config{})
	qb.RegisterMemoryLen(1 << 30)
	fwd.SetDropProb(0.04)
	var order []uint64
	for i := 0; i < 60; i++ {
		wrid := uint64(i)
		if err := qa.Write(wrid, 0, nil, 8192, func(c Completion) {
			order = append(order, c.WRID)
		}); err != nil {
			t.Fatal(err)
		}
	}
	s.Run()
	if len(order) != 60 {
		t.Fatalf("completed %d of 60", len(order))
	}
	inOrder := true
	for i, w := range order {
		if w != uint64(i) {
			inOrder = false
			break
		}
	}
	if inOrder {
		t.Skip("no reordering materialized at this seed; invariant vacuous")
	}
}

// starvedPair is qpPair with the initiator's RX-response pool cut to
// rxRespBytes, so a multi-segment Read cannot reserve all its segments at
// once and the rest wait for the connection's Xon edge.
func starvedPair(t *testing.T, rxRespBytes int, connCfg core.ConnConfig, qpCfg Config) (*sim.Simulator, *QP, *QP, *netsim.Port) {
	t.Helper()
	cfgA := core.DefaultNodeConfig()
	cfgA.Resources.Pools[tl.PoolRxResp].Bytes = rxRespBytes
	return pairWith(t, cfgA, connCfg, qpCfg)
}

// pairWith is qpPair with the initiator node configured by cfgA.
func pairWith(t *testing.T, cfgA core.NodeConfig, connCfg core.ConnConfig, qpCfg Config) (*sim.Simulator, *QP, *QP, *netsim.Port) {
	t.Helper()
	s := sim.New(23)
	topo, fwd := netsim.PointToPoint(s, testLink)
	cl := core.NewCluster(s)
	a := cl.AddNode(topo.Hosts[0], cfgA)
	b := cl.AddNode(topo.Hosts[1], core.DefaultNodeConfig())
	epA, epB := cl.Connect(a, b, connCfg)
	return s, NewQP(epA, qpCfg), NewQP(epB, Config{}), fwd
}

func patternMemory(n int) []byte {
	mem := make([]byte, n)
	for i := range mem {
		mem[i] = byte(i*31 + i>>8)
	}
	return mem
}

// TestReadReassemblesInOrderAcrossRefusals reads 64 KiB through a 16 KiB
// RX-response pool: segments are refused mid-op and re-issued from the
// op's cursor, and the completion must still carry every byte in order —
// on an ordered connection, and on a lossy unordered one where segments
// finish out of order and only the per-segment slots keep them apart.
func TestReadReassemblesInOrderAcrossRefusals(t *testing.T) {
	unordered := core.DefaultConnConfig()
	unordered.TL.Ordered = false
	for _, tc := range []struct {
		name    string
		connCfg core.ConnConfig
		qpCfg   Config
		drop    float64
	}{
		{"ordered", core.DefaultConnConfig(), Config{}, 0},
		{"unordered-lossy", unordered, Config{WeaklyOrdered: true}, 0.05},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, qa, qb, fwd := starvedPair(t, 16<<10, tc.connCfg, tc.qpCfg)
			rev := qb.Endpoint().Node().Host().Uplink()
			fwd.SetDropProb(tc.drop)
			rev.SetDropProb(tc.drop)
			remote := patternMemory(1 << 20)
			qb.RegisterMemory(remote)
			const size = 64<<10 - 100 // a short last segment
			var got [][]byte
			for i := 0; i < 4; i++ {
				if err := qa.Read(uint64(i), uint64(i)*size, size, func(c Completion) {
					if c.Err != nil {
						t.Errorf("read %d: %v", c.WRID, c.Err)
					}
					got = append(got, c.Data)
				}); err != nil {
					t.Fatal(err)
				}
			}
			s.Run()
			if qa.Endpoint().TL().Stats.Backpressured == 0 {
				t.Fatal("no segment was refused: the test did not exercise the issue cursor")
			}
			if len(got) != 4 {
				t.Fatalf("completed %d of 4 reads", len(got))
			}
			for i, data := range got {
				if !bytes.Equal(data, remote[i*size:(i+1)*size]) {
					t.Fatalf("read %d returned %d bytes out of order or corrupted", i, len(data))
				}
			}
		})
	}
}

// TestReadDescriptorReusedFromCompletion posts the next Read from inside
// the previous one's completion callback. The descriptor is back in the
// pool before the callback runs, so the chain runs on one pooled pullOp —
// including when a later Read needs more segment slots than the descriptor
// has — and no completion sees another op's bytes.
func TestReadDescriptorReusedFromCompletion(t *testing.T) {
	s, qa, qb, _ := qpPair(t)
	remote := patternMemory(1 << 20)
	qb.RegisterMemory(remote)
	sizes := []int{5000, 100, 40000, 4096, 65536, 0, 12345}
	done := 0
	var post func()
	post = func() {
		i := done
		addr, size := uint64(i)*1000, sizes[i]
		if err := qa.Read(uint64(i), addr, size, func(c Completion) {
			if c.Err != nil || c.WRID != uint64(i) {
				t.Errorf("read %d completed as %+v", i, c)
			}
			if !bytes.Equal(c.Data, remote[addr:addr+uint64(size)]) {
				t.Errorf("read %d (%d bytes) returned wrong data (%d bytes)", i, size, len(c.Data))
			}
			if qa.pullFree.Free() != 1 {
				t.Errorf("read %d: %d descriptors pooled inside the completion, want 1", i, qa.pullFree.Free())
			}
			if done++; done < len(sizes) {
				post()
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	post()
	s.Run()
	if done != len(sizes) {
		t.Fatalf("completed %d of %d chained reads", done, len(sizes))
	}
	if qa.pullFree.Free() != 1 {
		t.Fatalf("%d descriptors pooled after a serial chain, want 1", qa.pullFree.Free())
	}
	// An ATOMIC shares the pool and the one-slot path.
	var comp *Completion
	if err := qa.FetchAdd(99, 64, 1, func(c Completion) { comp = &c }); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if comp == nil || comp.Err != nil || len(comp.Data) != 8 || qa.pullFree.Free() != 1 {
		t.Fatalf("atomic after reads: %+v, %d descriptors pooled", comp, qa.pullFree.Free())
	}
}

// TestReadFailsOnceWhenConnectionDiesMidOp kills the connection while a
// Read waits for the Xon edge with some segments in flight and the rest
// never issued. The in-flight segments fail through the TL, the Xon edge the
// TL fires after teardown finds the connection dead and fails every
// remaining segment, and the op surfaces exactly one error completion and
// returns its descriptor.
func TestReadFailsOnceWhenConnectionDiesMidOp(t *testing.T) {
	s, qa, qb, _ := starvedPair(t, 16<<10, core.DefaultConnConfig(), Config{})
	qb.RegisterMemoryLen(1 << 20)
	var comps []Completion
	if err := qa.Read(7, 0, 64<<10, func(c Completion) { comps = append(comps, c) }); err != nil {
		t.Fatal(err)
	}
	if qa.Endpoint().TL().Stats.Backpressured == 0 {
		t.Fatal("the read was admitted whole: nothing waits for the Xon edge")
	}
	issued := qa.Endpoint().TL().Stats.Pulls
	qa.Endpoint().PDL().Fail()
	if len(comps) != 0 {
		t.Fatalf("op completed with %d segments never issued", 16-issued)
	}
	s.Run()
	if len(comps) != 1 {
		t.Fatalf("%d completions for one read on a dead connection, want exactly 1", len(comps))
	}
	if c := comps[0]; c.WRID != 7 || !errors.Is(c.Err, pdl.ErrConnectionLost) || c.Data != nil {
		t.Fatalf("completion %+v, want WRID 7 failing with the PDL's terminal error", c)
	}
	if got := qa.Endpoint().TL().Stats.Pulls; got != issued {
		t.Fatalf("%d segments issued after the connection died", got-issued)
	}
	if qa.pullFree.Free() != 1 {
		t.Fatalf("%d descriptors pooled after the failed op, want 1", qa.pullFree.Free())
	}
	// A Read posted on the dead connection fails synchronously, once.
	if err := qa.Read(8, 0, 8192, func(c Completion) { comps = append(comps, c) }); err != nil {
		t.Fatal(err)
	}
	if len(comps) != 2 || comps[1].WRID != 8 || comps[1].Err == nil {
		t.Fatalf("read on a dead connection: completions %+v", comps)
	}
}

// TestPushFailsOnceWhenConnectionDiesMidOp is the Write and Send twin of
// TestReadFailsOnceWhenConnectionDiesMidOp: a 64 KiB push refused by a
// 16 KiB TX-request pool waits in the send queue when the connection dies,
// and still completes exactly once, in error, with its descriptor pooled.
func TestPushFailsOnceWhenConnectionDiesMidOp(t *testing.T) {
	for _, tc := range []struct {
		name string
		post func(qa *QP, done func(Completion)) error
	}{
		{"write", func(qa *QP, done func(Completion)) error { return qa.Write(7, 0, nil, 64<<10, done) }},
		{"send", func(qa *QP, done func(Completion)) error { return qa.Send(7, nil, 64<<10, done) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfgA := core.DefaultNodeConfig()
			cfgA.Resources.Pools[tl.PoolTxReq].Bytes = 16 << 10
			s, qa, qb, _ := pairWith(t, cfgA, core.DefaultConnConfig(), Config{})
			qb.RegisterMemoryLen(1 << 20)
			qb.PostRecv(nil, 64<<10, nil)
			var comps []Completion
			if err := tc.post(qa, func(c Completion) { comps = append(comps, c) }); err != nil {
				t.Fatal(err)
			}
			if qa.Endpoint().TL().Stats.Backpressured == 0 {
				t.Fatal("the push was admitted whole: nothing waits for the Xon edge")
			}
			issued := qa.Endpoint().TL().Stats.Pushes
			qa.Endpoint().PDL().Fail()
			if len(comps) != 0 {
				t.Fatalf("op completed with %d segments never issued", 16-issued)
			}
			s.Run()
			if len(comps) != 1 {
				t.Fatalf("%d completions for one push on a dead connection, want exactly 1", len(comps))
			}
			if c := comps[0]; c.WRID != 7 || !errors.Is(c.Err, pdl.ErrConnectionLost) {
				t.Fatalf("completion %+v, want WRID 7 failing with the PDL's terminal error", c)
			}
			if got := qa.Endpoint().TL().Stats.Pushes; got != issued {
				t.Fatalf("%d segments issued after the connection died", got-issued)
			}
			if qa.pushFree.Free() != 1 || qa.Endpoint().TL().Parked() != 0 {
				t.Fatalf("%d descriptors pooled and %d waiting after the failed op, want 1 and 0",
					qa.pushFree.Free(), qa.Endpoint().TL().Parked())
			}
		})
	}
}

// TestSendsKeepPostOrderUnderBackpressure posts a 12000 B SEND (three
// segments) through a two-context TX-request pool, and a second SEND 10 us
// later while the first one's last segment still waits. The second message
// must queue behind the first: both receives complete whole, in order,
// each with its own message.
func TestSendsKeepPostOrderUnderBackpressure(t *testing.T) {
	cfgA := core.DefaultNodeConfig()
	cfgA.Resources.Pools[tl.PoolTxReq].Contexts = 2
	s, qa, qb, _ := pairWith(t, cfgA, core.DefaultConnConfig(), Config{})
	const size = 12000
	msgs := [2][]byte{bytes.Repeat([]byte{'a'}, size), bytes.Repeat([]byte{'b'}, size)}
	var bufs [2][]byte
	var got []int
	for i := range bufs {
		bufs[i] = make([]byte, size)
		qb.PostRecv(bufs[i], 0, func(n int, err error) {
			if err != nil || n != size {
				t.Errorf("receive %d: %d bytes, err %v", i, n, err)
			}
			got = append(got, i)
		})
	}
	sent := 0
	send := func(i int) {
		if err := qa.Send(uint64(i), msgs[i], 0, func(c Completion) {
			if c.Err != nil {
				t.Errorf("send %d: %v", i, c.Err)
			}
			sent++
		}); err != nil {
			t.Fatal(err)
		}
	}
	send(0)
	if qa.Endpoint().TL().Stats.Backpressured == 0 {
		t.Fatal("the first send was admitted whole: the second cannot overtake it")
	}
	s.After(10*time.Microsecond, func() { send(1) })
	s.Run()
	if sent != 2 {
		t.Fatalf("%d of 2 sends completed", sent)
	}
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("receives completed %v, want [0 1]", got)
	}
	for i := range bufs {
		if !bytes.Equal(bufs[i], msgs[i]) {
			t.Fatalf("receive %d does not hold message %d", i, i)
		}
	}
}

// TestPostsDoNotOvertakeWaitingOps leaves room in the RX-response pool for
// a WRITE's completion slot and an 8-byte ATOMIC response, but not for a
// Read's next 4 KiB segment, with no DT threshold to refuse any of them.
// While that Read waits in the send queue, a WRITE queues behind it and an
// ATOMIC is refused, rather than either being issued ahead of it. The
// ordered connection then completes them in post order.
func TestPostsDoNotOvertakeWaitingOps(t *testing.T) {
	connCfg := core.DefaultConnConfig()
	connCfg.TL.Backpressure = tl.BackpressureNone
	s, qa, qb, _ := starvedPair(t, 16<<10+8, connCfg, Config{})
	qb.RegisterMemoryLen(1 << 20)
	var order []uint64
	done := func(c Completion) {
		if c.Err != nil {
			t.Errorf("op %d: %v", c.WRID, c.Err)
		}
		order = append(order, c.WRID)
	}
	if err := qa.Read(1, 0, 64<<10, done); err != nil {
		t.Fatal(err)
	}
	if err := qa.Write(2, 0, nil, 4096, done); err != nil {
		t.Fatal(err)
	}
	if got := qa.Endpoint().TL().Stats.Pushes; got != 0 || qa.Endpoint().TL().Parked() != 2 {
		t.Fatalf("%d pushes issued and %d ops waiting behind a refused Read, want 0 and 2", got, qa.Endpoint().TL().Parked())
	}
	if err := qa.FetchAdd(3, 0, 1, done); !errors.Is(err, tl.ErrBackpressured) {
		t.Fatalf("atomic behind a waiting Read: %v, want ErrBackpressured", err)
	}
	s.Run()
	if err := qa.FetchAdd(4, 0, 1, done); err != nil {
		t.Fatalf("atomic on an idle send queue: %v", err)
	}
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 4 {
		t.Fatalf("completions %v, want [1 2 4]", order)
	}
}

// TestRefusedAtomicKeepsCompletionOrder fills an 8-byte RX-response pool
// with one ATOMIC, so a second one is refused at once. On a weakly-ordered
// QP the refused ATOMIC must give back its place in the completion order:
// the WRITE posted after it still completes.
func TestRefusedAtomicKeepsCompletionOrder(t *testing.T) {
	unordered := core.DefaultConnConfig()
	unordered.TL.Ordered = false
	unordered.TL.Backpressure = tl.BackpressureNone
	s, qa, qb, _ := starvedPair(t, 8, unordered, Config{WeaklyOrdered: true})
	qb.RegisterMemoryLen(1 << 20)
	var got []uint64
	done := func(c Completion) { got = append(got, c.WRID) }
	if err := qa.FetchAdd(1, 0, 1, done); err != nil {
		t.Fatal(err)
	}
	if err := qa.FetchAdd(2, 8, 1, done); err == nil {
		t.Fatal("second atomic admitted: the RX-response pool was not full")
	}
	s.Run()
	if err := qa.Write(3, 0, nil, 64, done); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("completions %v, want [1 3]", got)
	}
}
