package tl

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"time"

	"falcon/internal/falcon/pdl"
	"falcon/internal/falcon/wire"
	"falcon/internal/sim"
)

// fakeCtrl emulates the PDL beneath a TL connection: it assigns PSNs,
// forwards packets to the peer TL after a delay, acks accepted packets back
// to the sender, and relays the completion horizon — the PDL contract
// without loss or reordering (unless the test injects it).
type fakeCtrl struct {
	s     *sim.Simulator
	self  **Conn // set after construction
	peer  **Conn
	delay time.Duration
	psn   [wire.NumSpaces]uint32

	// holdRequests, when set, queues outgoing data packets instead of
	// delivering (for out-of-order injection).
	holdRequests bool
	held         []*wire.Packet

	// retryNoResources re-sends packets rejected with NoResources.
	retryDelay time.Duration
}

func (f *fakeCtrl) SendPacket(p *wire.Packet) {
	p.Space = wire.SpaceOf(p.Type)
	p.PSN = f.psn[p.Space]
	f.psn[p.Space]++
	if f.holdRequests {
		f.held = append(f.held, p)
		return
	}
	f.dispatch(p)
}

func (f *fakeCtrl) dispatch(p *wire.Packet) {
	f.s.After(f.delay, func() { f.deliver(p) })
}

func (f *fakeCtrl) deliver(p *wire.Packet) {
	v := (*f.peer).Deliver(p)
	switch v.Kind {
	case pdl.DeliverAccept:
		// ACK back to the sender after the return delay.
		f.s.After(f.delay, func() {
			(*f.self).PacketAcked(p.Space, p.PSN, p.RSN, p.Type)
			(*f.self).Completed((*f.peer).CompletedRSN())
		})
	case pdl.DeliverNoResources:
		d := f.retryDelay
		if d == 0 {
			d = 20 * time.Microsecond
		}
		f.s.After(d, func() { f.deliver(p) })
	}
}

// releaseHeld dispatches held packets in the given order (indices into
// held).
func (f *fakeCtrl) releaseHeld(order ...int) {
	for _, i := range order {
		f.dispatch(f.held[i])
	}
	f.held = nil
}

func (f *fakeCtrl) SendExceptionNack(space wire.Space, psn uint32, rsn uint64, code wire.NackCode, retry time.Duration) {
	n := &wire.Packet{Type: wire.TypeNack, NackCode: code, Space: space, PSN: psn, RSN: rsn, RetryDelayNs: uint32(retry.Nanoseconds())}
	f.s.After(f.delay, func() { (*f.peer).NackReceived(n) })
}

// env is a two-node TL testbed.
type env struct {
	s          *sim.Simulator
	resA, resB *Resources
	a, b       *Conn
	ctrlA      *fakeCtrl
	ctrlB      *fakeCtrl
	handlerB   *recordingHandler
}

type recordingHandler struct {
	pushes  []uint64
	pulls   []uint64
	verdict func(rsn uint64) TargetVerdict
}

func (h *recordingHandler) HandlePush(rsn uint64, p *wire.Packet) TargetVerdict {
	if h.verdict != nil {
		if v := h.verdict(rsn); v.Kind != TargetOK {
			return v
		}
	}
	h.pushes = append(h.pushes, rsn)
	return TargetVerdict{}
}

func (h *recordingHandler) HandlePull(rsn uint64, p *wire.Packet) ([]byte, uint32, TargetVerdict) {
	if h.verdict != nil {
		if v := h.verdict(rsn); v.Kind != TargetOK {
			return nil, 0, v
		}
	}
	h.pulls = append(h.pulls, rsn)
	return []byte("pulled"), p.PullLength, TargetVerdict{}
}

func newEnv(t *testing.T, cfg Config) *env {
	t.Helper()
	e := &env{s: sim.New(3)}
	e.resA = NewResources(DefaultResourceConfig())
	e.resB = NewResources(DefaultResourceConfig())
	e.handlerB = &recordingHandler{}
	e.ctrlA = &fakeCtrl{s: e.s, delay: time.Microsecond}
	e.ctrlB = &fakeCtrl{s: e.s, delay: time.Microsecond}
	e.a = NewConn(e.s, 1, cfg, e.resA, e.ctrlA, nil)
	e.b = NewConn(e.s, 1, cfg, e.resB, e.ctrlB, e.handlerB)
	e.ctrlA.self, e.ctrlA.peer = &e.a, &e.b
	e.ctrlB.self, e.ctrlB.peer = &e.b, &e.a
	return e
}

func TestPushCompletesInOrder(t *testing.T) {
	e := newEnv(t, DefaultConfig())
	var completions []uint64
	for i := 0; i < 5; i++ {
		rsn, err := e.a.Push(nil, 1024, func(_ []byte, err error) {
			if err != nil {
				t.Errorf("push error: %v", err)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		completions = append(completions, rsn)
	}
	e.s.Run()
	if len(e.handlerB.pushes) != 5 {
		t.Fatalf("target saw %d pushes", len(e.handlerB.pushes))
	}
	if e.a.Stats.CompletedOK != 5 {
		t.Fatalf("CompletedOK = %d", e.a.Stats.CompletedOK)
	}
	if e.b.CompletedRSN() != 5 {
		t.Fatalf("target CompletedRSN = %d", e.b.CompletedRSN())
	}
	// In-order requests are served from the wire packet, never buffered.
	if e.b.reorderBuf.Cap() != 0 {
		t.Fatalf("in-order arrivals allocated %d reorder slots", e.b.reorderBuf.Cap())
	}
}

func TestPullRoundTrip(t *testing.T) {
	e := newEnv(t, DefaultConfig())
	var got []byte
	if _, err := e.a.Pull(2048, func(data []byte, err error) {
		if err != nil {
			t.Errorf("pull error: %v", err)
		}
		got = data
	}); err != nil {
		t.Fatal(err)
	}
	e.s.Run()
	if string(got) != "pulled" {
		t.Fatalf("pull data = %q", got)
	}
	if len(e.handlerB.pulls) != 1 {
		t.Fatalf("target pulls = %d", len(e.handlerB.pulls))
	}
}

func TestOrderedDeliveryDespiteArrivalOrder(t *testing.T) {
	e := newEnv(t, DefaultConfig())
	e.ctrlA.holdRequests = true
	for i := 0; i < 4; i++ {
		if _, err := e.a.Push(nil, 256, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Deliver in scrambled order: 2,0,3,1.
	e.ctrlA.releaseHeld(2, 0, 3, 1)
	e.s.Run()
	if len(e.handlerB.pushes) != 4 {
		t.Fatalf("target saw %d pushes", len(e.handlerB.pushes))
	}
	for i, rsn := range e.handlerB.pushes {
		if rsn != uint64(i) {
			t.Fatalf("delivery order %v violates RSN order", e.handlerB.pushes)
		}
	}
}

func TestUnorderedDeliversImmediately(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Ordered = false
	e := newEnv(t, cfg)
	e.ctrlA.holdRequests = true
	for i := 0; i < 3; i++ {
		if _, err := e.a.Push(nil, 256, nil); err != nil {
			t.Fatal(err)
		}
	}
	e.ctrlA.releaseHeld(2, 1, 0)
	e.s.Run()
	if len(e.handlerB.pushes) != 3 {
		t.Fatalf("target saw %d pushes", len(e.handlerB.pushes))
	}
	// Arrival order preserved (2,1,0), not RSN order.
	if e.handlerB.pushes[0] != 2 {
		t.Fatalf("unordered delivery should follow arrival: %v", e.handlerB.pushes)
	}
	if e.a.Stats.CompletedOK != 3 {
		t.Fatalf("CompletedOK = %d", e.a.Stats.CompletedOK)
	}
	if e.b.CompletedRSN() != 0 {
		t.Fatal("unordered connections advertise no completion horizon")
	}
	// Nothing waits for order, so nothing is buffered.
	if e.b.reorderBuf.Cap() != 0 {
		t.Fatalf("unordered connection allocated %d reorder slots", e.b.reorderBuf.Cap())
	}
}

func TestResourcesReturnToZero(t *testing.T) {
	e := newEnv(t, DefaultConfig())
	for i := 0; i < 10; i++ {
		if _, err := e.a.Push(nil, 1000, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := e.a.Pull(3000, nil); err != nil {
			t.Fatal(err)
		}
	}
	e.s.Run()
	for _, res := range []*Resources{e.resA, e.resB} {
		for k := PoolKind(0); k < numPools; k++ {
			if occ := res.Occupancy(k); occ != 0 {
				t.Errorf("pool %v occupancy %v after drain", k, occ)
			}
		}
	}
	if u := heldContexts(e.a); u != 0 {
		t.Errorf("conn usage %d after drain", u)
	}
}

func TestHoLAdmission(t *testing.T) {
	res := NewResources(ResourceConfig{
		Pools: [numPools]PoolConfig{
			PoolRxReq: {Contexts: 10, Bytes: 10000},
		},
	})
	c := newHolder(res)
	// Fill to the threshold with non-HoL requests.
	for i := 0; i < 5; i++ {
		if err := c.admitRxRequest(100, false); err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
	}
	// Beyond the threshold, non-HoL is refused, HoL admitted.
	if err := c.admitRxRequest(100, false); err == nil {
		t.Fatal("non-HoL admitted beyond threshold")
	}
	if err := c.admitRxRequest(100, true); err != nil {
		t.Fatalf("HoL refused: %v", err)
	}
}

func TestRNRRetryCompletes(t *testing.T) {
	e := newEnv(t, DefaultConfig())
	attempts := 0
	e.handlerB.verdict = func(rsn uint64) TargetVerdict {
		attempts++
		if attempts <= 2 {
			return TargetVerdict{Kind: TargetRNR, RetryDelay: 30 * time.Microsecond}
		}
		return TargetVerdict{}
	}
	var done bool
	if _, err := e.a.Push(nil, 512, func(_ []byte, err error) {
		if err != nil {
			t.Errorf("push failed after RNR retries: %v", err)
		}
		done = true
	}); err != nil {
		t.Fatal(err)
	}
	e.s.Run()
	if !done {
		t.Fatal("push never completed")
	}
	if e.a.Stats.RNRRetries != 2 {
		t.Fatalf("RNRRetries = %d, want 2", e.a.Stats.RNRRetries)
	}
	if attempts != 3 {
		t.Fatalf("target attempts = %d", attempts)
	}
}

func TestCIECompletesInErrorAndContinues(t *testing.T) {
	e := newEnv(t, DefaultConfig())
	e.handlerB.verdict = func(rsn uint64) TargetVerdict {
		if rsn == 0 {
			return TargetVerdict{Kind: TargetError}
		}
		return TargetVerdict{}
	}
	var errs []error
	for i := 0; i < 3; i++ {
		if _, err := e.a.Push(nil, 512, func(_ []byte, err error) {
			errs = append(errs, err)
		}); err != nil {
			t.Fatal(err)
		}
	}
	e.s.Run()
	if len(errs) != 3 {
		t.Fatalf("completions = %d", len(errs))
	}
	if !errors.Is(errs[0], ErrCIE) {
		t.Fatalf("first completion error = %v, want CIE", errs[0])
	}
	if errs[1] != nil || errs[2] != nil {
		t.Fatalf("subsequent transactions should succeed: %v", errs)
	}
	if e.a.Stats.CompletedError != 1 || e.a.Stats.CompletedOK != 2 {
		t.Fatalf("stats: %+v", e.a.Stats)
	}
	if built, free := e.resA.TxnContexts(); free != built {
		t.Fatalf("%d transaction contexts built, %d back on the free list", built, free)
	}
}

func TestBackpressureStaticThreshold(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Backpressure = BackpressureStatic
	cfg.StaticAlpha = 0.00005 // threshold below one context
	e := newEnv(t, cfg)
	// The first push holds 2 contexts; with a tiny alpha the second is
	// refused until the first completes.
	if _, err := e.a.Push(nil, 100, nil); err != nil {
		t.Fatal(err)
	}
	var errs []error
	e.a.Submit(WorkFunc(func() bool {
		_, err := e.a.Push(nil, 100, nil)
		errs = append(errs, err)
		return err == nil
	}))
	if len(errs) != 1 || !errors.Is(errs[0], ErrBackpressured) || e.a.Parked() != 1 {
		t.Fatalf("submitted push: attempts %v, %d parked; want one ErrBackpressured, parked", errs, e.a.Parked())
	}
	if e.a.Stats.Backpressured == 0 {
		t.Fatal("backpressure not counted")
	}
	// Xon fires once resources drain — once per Xoff episode, not once per
	// release — and resumes the parked push, which is then admitted.
	e.s.Run()
	if len(errs) != 2 || errs[1] != nil || e.a.Parked() != 0 {
		t.Fatalf("after drain: attempts %v, %d parked; want exactly one resume, admitted", errs, e.a.Parked())
	}
	if _, err := e.a.Push(nil, 100, nil); err != nil {
		t.Fatalf("push after Xon: %v", err)
	}
}

// TestBareRefusalsWakeBounded is the regression test for the sticky
// wake-up interest. A ULP that refuses to park may be refused any number of
// times, by its DT threshold and by a full pool: the connection waits in
// the pool's waiter FIFO at most once, so the next release wakes it at most
// twice (the releasing connection's self check and the FIFO walk), and the
// Xon edge disarms it so later releases wake nothing.
func TestBareRefusalsWakeBounded(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Backpressure = BackpressureStatic
	cfg.StaticAlpha = 1 // over the threshold once it holds the pool's last context
	e := newEnv(t, cfg)
	e.resA.pools[PoolTxReq].cfg.Contexts = 2
	e.ctrlA.holdRequests = true // nothing is acked until released
	// The connection holds one TxReq context and a second connection the
	// other, so the pool is full and any holding is over the threshold.
	if _, err := e.a.Push(nil, 100, nil); err != nil {
		t.Fatal(err)
	}
	holder := newHolder(e.resA)
	if err := holder.reserve(PoolTxReq, 0); err != nil {
		t.Fatal(err)
	}
	// Alternate DT refusals with full-pool ones (the latter with the
	// threshold switched off).
	for i := 0; i < 100; i++ {
		e.a.cfg.Backpressure = []BackpressureMode{BackpressureStatic, BackpressureNone}[i%2]
		if _, err := e.a.Push(nil, 100, nil); err == nil {
			t.Fatalf("refusal %d was admitted", i)
		}
	}
	e.a.cfg.Backpressure = BackpressureStatic
	if e.a.Stats.Backpressured != 100 {
		t.Fatalf("counted %d refusals, want 100", e.a.Stats.Backpressured)
	}
	if n, w := needyConns(e.a, holder), e.resA.waiters.Len(); n != 1 || w != 1 {
		t.Fatalf("after 100 refusals: %d needy connections, %d waiters; want 1 and 1", n, w)
	}
	// One release: at most the self check and one FIFO entry, and the edge
	// disarms the connection.
	holder.unreserve(PoolTxReq, 0)
	if n, w := needyConns(e.a, holder), e.resA.waiters.Len(); n != 0 || w != 0 {
		t.Fatalf("after one release: %d needy connections, %d waiters; want 0 and 0", n, w)
	}
	e.ctrlA.holdRequests = false
	e.ctrlA.releaseHeld(0)
	e.s.Run()
}

// TestRefusalsAllocationFree holds the three refusal paths that run per
// packet under load to zero allocations: a pool-exhausted reserve, an
// RxReq admission beyond the HoL threshold, and a backpressured Pull.
// The errors stay matchable and keep their text.
func TestRefusalsAllocationFree(t *testing.T) {
	rc := DefaultResourceConfig()
	rc.Pools[PoolTxResp] = PoolConfig{Contexts: 1, Bytes: 4096}
	rc.Pools[PoolRxReq] = PoolConfig{Contexts: 2, Bytes: 8192}
	c := newHolder(NewResources(rc))
	if err := c.reserve(PoolTxResp, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.admitRxRequest(0, true); err != nil { // occupancy 0.5 = threshold
		t.Fatal(err)
	}
	var reserveErr, admitErr error
	if n := testing.AllocsPerRun(100, func() { reserveErr = c.reserve(PoolTxResp, 0) }); n != 0 {
		t.Errorf("refused reserve: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { admitErr = c.admitRxRequest(0, false) }); n != 0 {
		t.Errorf("refused admitRxRequest: %v allocs/op, want 0", n)
	}
	if !errors.Is(reserveErr, ErrNoResources) || reserveErr.Error() != "tl: resource pool exhausted: tx-resp" {
		t.Errorf("refused reserve returned %q", reserveErr)
	}
	if !errors.Is(admitErr, ErrNoResources) || admitErr.Error() != "tl: resource pool exhausted: rx-req beyond HoL threshold" {
		t.Errorf("refused admitRxRequest returned %q", admitErr)
	}

	cfg := DefaultConfig()
	cfg.Backpressure = BackpressureStatic
	cfg.StaticAlpha = 0.00005
	e := newEnv(t, cfg)
	if _, err := e.a.Pull(100, nil); err != nil {
		t.Fatal(err)
	}
	var pullErr error
	if n := testing.AllocsPerRun(100, func() { _, pullErr = e.a.Pull(100, nil) }); n != 0 {
		t.Errorf("refused Pull: %v allocs/op, want 0", n)
	}
	if !errors.Is(pullErr, ErrBackpressured) {
		t.Errorf("refused Pull returned %v", pullErr)
	}
	e.s.Run()
}

func TestBackpressureNoneNeverRefusesUntilPoolsExhaust(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Backpressure = BackpressureNone
	e := newEnv(t, cfg)
	e.ctrlA.holdRequests = true // nothing completes
	n := 0
	for {
		if _, err := e.a.Push(nil, 0, nil); err != nil {
			break
		}
		n++
		if n > 5000 {
			t.Fatal("pool never exhausted")
		}
	}
	// Zero-byte pushes exhaust contexts: the smaller of the TxReq and
	// RxResp context pools bounds admissions.
	want := DefaultResourceConfig().Pools[PoolTxReq].Contexts
	if rx := DefaultResourceConfig().Pools[PoolRxResp].Contexts; rx < want {
		want = rx
	}
	if n != want {
		t.Fatalf("admitted %d pushes before exhaustion, want %d", n, want)
	}
}

func TestMTUViolationRejected(t *testing.T) {
	e := newEnv(t, DefaultConfig())
	if _, err := e.a.Push(nil, MTU+1, nil); err == nil {
		t.Fatal("push above MTU accepted")
	}
	if _, err := e.a.Pull(MTU+1, nil); err == nil {
		t.Fatal("pull above MTU accepted")
	}
}

func TestPullResponseDeferredUnderTxRespPressure(t *testing.T) {
	cfg := DefaultConfig()
	e := newEnv(t, cfg)
	// Shrink B's TxResp pool to 1 context so concurrent pulls defer.
	e.resB.pools[PoolTxResp].cfg = PoolConfig{Contexts: 1, Bytes: 4096}
	okCount := 0
	for i := 0; i < 4; i++ {
		if _, err := e.a.Pull(1024, func(_ []byte, err error) {
			if err == nil {
				okCount++
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	e.s.Run()
	if okCount != 4 {
		t.Fatalf("completed %d of 4 pulls with deferred responses", okCount)
	}
}

func TestResourcePoolAccounting(t *testing.T) {
	res := NewResources(DefaultResourceConfig())
	c := newHolder(res)
	if err := c.reserve(PoolTxReq, 1000); err != nil {
		t.Fatal(err)
	}
	if heldContexts(c) != 1 {
		t.Fatalf("usage = %d", heldContexts(c))
	}
	if res.Occupancy(PoolTxReq) <= 0 {
		t.Fatal("occupancy should be positive")
	}
	c.unreserve(PoolTxReq, 1000)
	if heldContexts(c) != 0 || res.Occupancy(PoolTxReq) != 0 {
		t.Fatal("release did not restore")
	}

	// A push holds its request's context and its completion's slot.
	s := sim.New(1)
	p := NewConn(s, 3, DefaultConfig(), res, &fakeCtrl{s: s}, nil)
	if _, err := p.Push(nil, 100, nil); err != nil {
		t.Fatal(err)
	}
	if got := heldContexts(p); got != 2 {
		t.Fatalf("a push holds %d contexts, want 2 (request + completion slot)", got)
	}
}

// TestOverReleasePanics: a release below zero panics, whether it would
// empty the pool past zero or take from a connection what another one
// holds; a refused release changes nothing.
func TestOverReleasePanics(t *testing.T) {
	res := NewResources(DefaultResourceConfig())
	a, b := newHolder(res), newHolder(res)
	mustPanic := func(what string, release func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic on over-release", what)
			}
		}()
		release()
	}
	mustPanic("empty pool", func() { a.unreserve(PoolTxReq, 0) })
	for _, c := range []*Conn{a, b} {
		if err := c.reserve(PoolTxReq, 1000); err != nil {
			t.Fatal(err)
		}
	}
	// The pool holds what each release returns; the connection does not.
	mustPanic("a context another connection holds", func() { newHolder(res).unreserve(PoolTxReq, 0) })
	mustPanic("bytes another connection holds", func() { a.unreserve(PoolTxReq, 2000) })
	for _, c := range []*Conn{a, b} {
		if h := c.held[PoolTxReq]; h.ctx != 1 || h.bytes != 1000 {
			t.Errorf("after refused releases a connection holds %+v, want 1 context and 1000 bytes", h)
		}
	}
	if p := res.pools[PoolTxReq]; p.usedContexts != 2 || p.usedBytes != 2000 {
		t.Errorf("after refused releases the pool holds %d contexts and %d bytes, want 2 and 2000", p.usedContexts, p.usedBytes)
	}
}

func TestRxOccupancySignal(t *testing.T) {
	res := NewResources(DefaultResourceConfig())
	if res.RxOccupancy() != 0 {
		t.Fatal("empty resources should report 0 occupancy")
	}
	cfgBytes := DefaultResourceConfig().Pools[PoolRxReq].Bytes
	if err := newHolder(res).reserve(PoolRxReq, cfgBytes/2); err != nil {
		t.Fatal(err)
	}
	if occ := res.RxOccupancy(); occ < 0.49 || occ > 0.51 {
		t.Fatalf("occupancy = %v, want ~0.5", occ)
	}
}

// nopCtrl is a PDL that swallows every packet: for tests that drive
// admission and wake-ups without traffic.
type nopCtrl struct{}

func (nopCtrl) SendPacket(*wire.Packet) {}

func (nopCtrl) SendExceptionNack(wire.Space, uint32, uint64, wire.NackCode, time.Duration) {}

// needyConns counts the connections among cs that a release would wake.
func needyConns(cs ...*Conn) int {
	n := 0
	for _, c := range cs {
		if c.needy() {
			n++
		}
	}
	return n
}

// newHolder returns an idle connection on res through which a test takes
// and returns resources directly.
func newHolder(res *Resources) *Conn {
	return NewConn(sim.New(1), 0, DefaultConfig(), res, nopCtrl{}, nil)
}

// heldContexts sums the contexts c holds across its node's pools.
func heldContexts(c *Conn) int {
	n := 0
	for _, h := range c.held {
		n += int(h.ctx)
	}
	return n
}

// TestReleaseWakeBounded pins the wake contract. A release wakes the
// releasing connection, then the connections a full pool refused, in
// refusal order, and stops at the first one refused again. Connections
// refused by their DT threshold are not walked, however many there are.
func TestReleaseWakeBounded(t *testing.T) {
	s := sim.New(1)
	rc := DefaultResourceConfig()
	rc.Pools[PoolTxReq].Contexts = 1
	res := NewResources(rc)
	dt := DefaultConfig()
	dt.Backpressure = BackpressureStatic
	dt.StaticAlpha = 1e-6 // any holding is over the threshold
	cfg := DefaultConfig()
	cfg.Backpressure = BackpressureNone // every wake of a refused connection signals Xon
	newConn := func(cfg Config) *Conn { return NewConn(s, 0, cfg, res, nopCtrl{}, nil) }
	// park submits work to c whose first run is a push the TL must refuse
	// with want; each later run is a wake, calling wake, which reports
	// whether the work is done.
	park := func(c *Conn, want error, wake func(c *Conn) bool) *Conn {
		t.Helper()
		first := true
		c.Submit(WorkFunc(func() bool {
			if first {
				first = false
				if _, err := c.Push(nil, 0, nil); !errors.Is(err, want) {
					t.Fatalf("first push: %v, want %v", err, want)
				}
				return false
			}
			return wake(c)
		}))
		return c
	}

	// 1000 connections refused by their DT threshold, each holding one
	// context: subs[0] the only TxReq context, the others a TxResp one.
	// Then one connection refused by the full TxReq pool.
	subWakes := 0
	subWake := func(*Conn) bool { subWakes++; return true }
	subs := make([]*Conn, 1000)
	for i := range subs {
		k := PoolTxResp
		if i == 0 {
			k = PoolTxReq
		}
		subs[i] = newConn(dt)
		if err := subs[i].reserve(k, 0); err != nil {
			t.Fatal(err)
		}
		park(subs[i], ErrBackpressured, subWake)
	}
	waiterWakes := 0
	park(newConn(cfg), ErrNoResources, func(*Conn) bool { waiterWakes++; return true })
	if n := res.waiters.Len(); n != 1 {
		t.Fatalf("%d connections wait for any release, want only the pool waiter", n)
	}
	subs[0].unreserve(PoolTxReq, 0)
	if subWakes != 1 || waiterWakes != 1 {
		t.Fatalf("one release woke %d DT-refused and %d pool-waiting connections, want 1 and 1",
			subWakes, waiterWakes)
	}

	// Three pool waiters refused in the order 2, 0, 1, each re-issuing
	// one push when woken.
	holder := newConn(cfg)
	if err := holder.reserve(PoolTxReq, 0); err != nil {
		t.Fatal(err)
	}
	var order []int
	waiters := make([]*Conn, 3)
	for _, i := range []int{2, 0, 1} {
		waiters[i] = park(newConn(cfg), ErrNoResources, func(c *Conn) bool {
			order = append(order, i)
			_, err := c.Push(nil, 0, nil)
			return err == nil
		})
	}
	// Waiter 2 takes the freed context; waiter 0 is refused again and
	// ends the walk, so waiter 1 keeps its place at the head.
	holder.unreserve(PoolTxReq, 0)
	if want := []int{2, 0}; !slices.Equal(order, want) {
		t.Fatalf("first release woke %v, want %v", order, want)
	}
	waiters[2].unreserve(PoolTxReq, 0)
	if want := []int{2, 0, 1, 0}; !slices.Equal(order, want) {
		t.Fatalf("second release woke %v, want %v", order, want)
	}
	if subWakes != 1 {
		t.Fatalf("pool releases woke %d connections waiting on their DT threshold", subWakes-1)
	}
}

// TestFailLeavesWaiters: a connection that a full pool refused leaves the
// pool's waiters when it fails, and the others keep their refusal order.
// No release need come first: one may never come to a crashed node.
func TestFailLeavesWaiters(t *testing.T) {
	rc := DefaultResourceConfig()
	rc.Pools[PoolTxReq].Contexts = 1
	res := NewResources(rc)
	if err := newHolder(res).reserve(PoolTxReq, 0); err != nil {
		t.Fatal(err)
	}
	cs := []*Conn{newHolder(res), newHolder(res), newHolder(res)}
	for _, c := range cs {
		if _, err := c.Push(nil, 0, nil); !errors.Is(err, ErrNoResources) {
			t.Fatalf("push on a full pool: %v, want ErrNoResources", err)
		}
	}
	cs[1].Fail(nil)
	if cs[1].queued {
		t.Fatal("the failed connection is still marked queued")
	}
	var left []*Conn
	for res.waiters.Len() > 0 {
		left = append(left, res.waiters.Pop())
	}
	if want := []*Conn{cs[0], cs[2]}; !slices.Equal(left, want) {
		t.Fatalf("waiters after a failure %v, want the other two in refusal order %v", left, want)
	}
}

// xonULP issues ops until the TL refuses one; submitted to the TL, it
// resumes only on Xon.
type xonULP struct {
	t         *testing.T
	c         *Conn
	pull      bool
	size      uint32
	ops       int
	issued    int
	completed int
}

func (u *xonULP) issue() bool {
	for u.issued < u.ops {
		var err error
		if u.pull {
			_, err = u.c.Pull(u.size, u.done)
		} else {
			_, err = u.c.Push(nil, u.size, u.done)
		}
		if err != nil {
			if !errors.Is(err, ErrNoResources) && !errors.Is(err, ErrBackpressured) {
				u.t.Errorf("conn %d: %v", u.c.ID(), err)
			}
			return false
		}
		u.issued++
	}
	return true
}

func (u *xonULP) done(_ []byte, err error) {
	if err != nil {
		u.t.Errorf("conn %d: completion error %v", u.c.ID(), err)
	}
	u.completed++
}

// TestXonLiveness is the liveness property of Xon-only admission: over
// seeded random connection counts, pool sizes, α and ordering, ULPs that
// resume only on the Xon edge finish every op, and at quiescence no
// connection on either node is still waiting for a wake.
func TestXonLiveness(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := sim.New(seed)
		rc := DefaultResourceConfig()
		for k := range rc.Pools {
			ctx := 2 + rng.Intn(24)
			rc.Pools[k] = PoolConfig{Contexts: ctx, Bytes: 4096 * (1 + rng.Intn(ctx))}
		}
		resA, resB := NewResources(rc), NewResources(rc)
		cfg := DefaultConfig()
		cfg.Backpressure = BackpressureStatic
		cfg.StaticAlpha = 0.05 + 3*rng.Float64()
		cfg.Ordered = rng.Intn(2) == 0
		n := 1 + rng.Intn(32)
		as, bs := make([]*Conn, n), make([]*Conn, n)
		ulps := make([]*xonULP, n)
		for i := 0; i < n; i++ {
			delay := time.Duration(1+rng.Intn(4)) * time.Microsecond
			ctrlA := &fakeCtrl{s: s, delay: delay}
			ctrlB := &fakeCtrl{s: s, delay: delay}
			as[i] = NewConn(s, uint32(i), cfg, resA, ctrlA, nil)
			bs[i] = NewConn(s, uint32(i), cfg, resB, ctrlB, &recordingHandler{})
			ctrlA.self, ctrlA.peer = &as[i], &bs[i]
			ctrlB.self, ctrlB.peer = &bs[i], &as[i]
			ulps[i] = &xonULP{t: t, c: as[i], pull: rng.Intn(2) == 0,
				size: uint32(rng.Intn(4097)), ops: 1 + rng.Intn(40)}
		}
		for _, u := range ulps {
			u.c.Submit(WorkFunc(u.issue))
		}
		s.Run()
		refused := uint64(0)
		for i, u := range ulps {
			refused += as[i].Stats.Backpressured
			if u.completed != u.ops {
				t.Fatalf("seed %d (%d conns, alpha %.2f, pools %+v): conn %d completed %d of %d ops",
					seed, n, cfg.StaticAlpha, rc.Pools, i, u.completed, u.ops)
			}
		}
		for i := range as {
			if n := as[i].Parked(); n != 0 {
				t.Fatalf("seed %d: conn %d still has %d parked", seed, i, n)
			}
		}
		if a, b := needyConns(as...), needyConns(bs...); a != 0 || b != 0 {
			t.Fatalf("seed %d: %d initiator and %d target connections still needy at quiescence", seed, a, b)
		}
		if seed == 1 && refused == 0 {
			t.Fatalf("seed %d: no refusals; the property was not exercised", seed)
		}
	}
}

func TestPoolKindStrings(t *testing.T) {
	for k := PoolKind(0); k < numPools; k++ {
		if k.String() == "" {
			t.Fatalf("empty name for pool %d", k)
		}
	}
	_ = PoolKind(99).String()
	_ = BackpressureNone.String()
	_ = BackpressureStatic.String()
	_ = BackpressureDynamic.String()
}

// TestRNRSustainedStallLossless is the RNR liveness property behind the
// chaos rnr_stall scenario: however long the target stalls and whatever
// the retry cadence, a sustained receiver-not-ready window never DROPS a
// transaction — every push eventually completes successfully once the
// target unstalls, and the target still observes them in RSN order (the
// retry path must not leak an op past a younger one). Swept over several
// stall-window / retry-delay combinations rather than a single lucky
// alignment.
func TestRNRSustainedStallLossless(t *testing.T) {
	cases := []struct {
		stallFor   time.Duration
		retryDelay time.Duration
	}{
		{200 * time.Microsecond, 10 * time.Microsecond},
		{500 * time.Microsecond, 35 * time.Microsecond},
		{1 * time.Millisecond, 75 * time.Microsecond},
		{333 * time.Microsecond, 7 * time.Microsecond},
	}
	const ops = 12
	for _, tc := range cases {
		e := newEnv(t, DefaultConfig())
		stalled := true
		e.handlerB.verdict = func(rsn uint64) TargetVerdict {
			if stalled {
				return TargetVerdict{Kind: TargetRNR, RetryDelay: tc.retryDelay}
			}
			return TargetVerdict{}
		}
		e.s.After(tc.stallFor, func() { stalled = false })

		fails := 0
		for i := 0; i < ops; i++ {
			if _, err := e.a.Push(nil, 512, func(_ []byte, err error) {
				if err != nil {
					fails++
				}
			}); err != nil {
				t.Fatalf("stall=%v retry=%v: Push(%d): %v", tc.stallFor, tc.retryDelay, i, err)
			}
		}
		e.s.Run()

		if fails != 0 {
			t.Errorf("stall=%v retry=%v: %d pushes completed in error — RNR dropped transactions",
				tc.stallFor, tc.retryDelay, fails)
		}
		completed := e.handlerB.pushes
		if len(completed) != ops {
			t.Errorf("stall=%v retry=%v: target accepted %d of %d pushes",
				tc.stallFor, tc.retryDelay, len(completed), ops)
		}
		for i, rsn := range completed {
			if rsn != uint64(i) {
				t.Errorf("stall=%v retry=%v: target order %v violates RSN order after unstall",
					tc.stallFor, tc.retryDelay, completed)
				break
			}
		}
		if e.a.Stats.RNRRetries == 0 {
			t.Errorf("stall=%v retry=%v: no RNR retries recorded — stall window missed all traffic",
				tc.stallFor, tc.retryDelay)
		}
		if e.a.Stats.CompletedOK != ops {
			t.Errorf("stall=%v retry=%v: CompletedOK = %d, want %d",
				tc.stallFor, tc.retryDelay, e.a.Stats.CompletedOK, ops)
		}
	}
}

// TestTxnContextsSharedPerCluster: transaction contexts come from one free
// list per cluster, not from each connection or node. Connection B on one
// node and connection A on another, whose Resources shares B's list
// (ShareTxnContexts), each complete 2n transactions; B then issues n, then
// n more, with no allocation at all, and the cluster has built only 2n
// contexts for both. B's RSN tables start at 8 slots and grow with the
// live span they see, so B is warmed first with 2n transactions live at
// once: that sizes its tables for the measured span, and A then reuses the
// contexts B built.
func TestTxnContextsSharedPerCluster(t *testing.T) {
	const n = 8
	s := sim.New(1)
	resA, resB := NewResources(DefaultResourceConfig()), NewResources(DefaultResourceConfig())
	resA.ShareTxnContexts(resB)
	a := NewConn(s, 1, DefaultConfig(), resA, nopCtrl{}, nil)
	b := NewConn(s, 2, DefaultConfig(), resB, nopCtrl{}, nil)
	pool := wire.NewPacketPool()
	a.SetPacketPool(pool)
	b.SetPacketPool(pool)
	// nopCtrl keeps the request packets, so the pool needs 4n+1 up front.
	pkts := make([]*wire.Packet, 4*n+1)
	for i := range pkts {
		pkts[i] = pool.Acquire()
	}
	for _, p := range pkts {
		pool.Release(p)
	}
	run := func(c *Conn, k int) {
		for i := 0; i < k; i++ {
			if _, err := c.Push(nil, 64, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	complete := func(c *Conn) {
		for rsn := c.releaseRSN; rsn < c.nextRSN; rsn++ {
			c.PacketAcked(wire.SpaceRequest, 0, rsn, wire.TypePushData)
		}
		c.Completed(c.nextRSN)
		if c.OutstandingTxns() != 0 {
			t.Fatalf("%d transactions still open", c.OutstandingTxns())
		}
	}
	run(b, 2*n)
	complete(b)
	run(a, 2*n)
	complete(a)

	// AllocsPerRun issues n once unmeasured, then n measured.
	if m := testing.AllocsPerRun(1, func() { run(b, n) }); m != 0 {
		t.Fatalf("issuing transactions after another connection released them: %v allocations per %d, want 0", m, n)
	}
	if built, free := resA.TxnContexts(); built != 2*n || free != 0 {
		t.Fatalf("cluster built %d contexts with %d free, want %d and 0", built, free, 2*n)
	}
	complete(b)
	for _, res := range []*Resources{resA, resB} {
		if built, free := res.TxnContexts(); built != 2*n || free != 2*n {
			t.Fatalf("at quiescence the cluster has %d contexts and %d free, want %d of %d", built, free, 2*n, 2*n)
		}
	}
}
