// Package tl implements Falcon's Transaction Layer (§4.4–§4.6): the
// request-response transaction interface offered to ULPs, on-NIC resource
// admission with deadlock-free carving, RSN-based ordering, RNR/CIE error
// semantics, and dynamic-threshold connection isolation.
package tl

import (
	"errors"
	"fmt"
)

// PoolKind identifies one of the four resource sub-pools of Figure 6. The
// carving principles (§4.5): TX and RX are split so either direction can
// always progress, and requests and responses are split so responses are
// never starved by outstanding requests.
type PoolKind int

const (
	// PoolTxReq holds contexts/buffers for requests this NIC transmits.
	PoolTxReq PoolKind = iota
	// PoolTxResp holds resources for responses this NIC transmits.
	PoolTxResp
	// PoolRxReq holds resources for requests arriving from the network.
	PoolRxReq
	// PoolRxResp holds resources for responses arriving from the
	// network; reserved at request-initiation time so head-of-line
	// responses always land (§4.5 "Resource Lifecycle").
	PoolRxResp
	numPools
)

func (k PoolKind) String() string {
	switch k {
	case PoolTxReq:
		return "tx-req"
	case PoolTxResp:
		return "tx-resp"
	case PoolRxReq:
		return "rx-req"
	case PoolRxResp:
		return "rx-resp"
	}
	return fmt.Sprintf("PoolKind(%d)", int(k))
}

// PoolConfig sizes one sub-pool.
type PoolConfig struct {
	Contexts int // fixed-size per-packet metadata slots
	Bytes    int // buffer bytes for payloads / SGLs
}

// ResourceConfig sizes all four sub-pools.
type ResourceConfig struct {
	Pools [numPools]PoolConfig
	// HoLAdmissionThreshold is the RxReq occupancy fraction beyond which
	// only head-of-line requests are admitted (§4.5).
	HoLAdmissionThreshold float64
}

// DefaultResourceConfig sizes pools for a 200G NIC with ~50us RTTs. The RX
// pools hold O(BDP) = 1.25MB of on-chip buffering (§5.2); the TX pools are
// larger in bytes because transmit payloads stay in host memory (the pool
// bounds scatter-gather state, not packet data).
func DefaultResourceConfig() ResourceConfig {
	tx := PoolConfig{Contexts: 4096, Bytes: 8 << 20}
	rx := PoolConfig{Contexts: 4096, Bytes: 1280 << 10}
	return ResourceConfig{
		Pools: [numPools]PoolConfig{
			PoolTxReq:  tx,
			PoolTxResp: tx,
			PoolRxReq:  rx,
			PoolRxResp: rx,
		},
		HoLAdmissionThreshold: 0.5,
	}
}

// ErrNoResources reports pool exhaustion at admission.
var ErrNoResources = errors.New("tl: resource pool exhausted")

// Refusals are per-packet events under load (HoL admission, deferred
// response drains, rdma's admission poll), so Reserve and AdmitRxRequest
// return these precomputed errors instead of formatting one per call. Each
// wraps ErrNoResources.
var (
	errPoolExhausted = func() (errs [numPools]error) {
		for k := range errs {
			errs[k] = fmt.Errorf("%w: %v", ErrNoResources, PoolKind(k))
		}
		return errs
	}()
	errBeyondHoL = fmt.Errorf("%w: rx-req beyond HoL threshold", ErrNoResources)
)

// connInts is a per-connection counter table indexed directly by
// connection ID (IDs are small and dense — the NIC assigns them
// sequentially), replacing the map[uint32]int lookups that dominated
// Reserve/Release profiles. Absent IDs read as zero, matching the map's
// delete-at-zero behavior.
type connInts []int

func (s *connInts) at(conn uint32) int {
	if int(conn) >= len(*s) {
		return 0
	}
	return (*s)[conn]
}

func (s *connInts) add(conn uint32, d int) {
	for int(conn) >= len(*s) {
		n := len(*s) * 2
		if n < 64 {
			n = 64
		}
		grown := make([]int, n)
		copy(grown, *s)
		*s = grown
	}
	(*s)[conn] += d
}

type pool struct {
	cfg          PoolConfig
	usedContexts int
	usedBytes    int
	// Per-connection holdings within this pool (DT isolation inputs).
	connCtx   connInts
	connBytes connInts
}

func (p *pool) tryReserve(bytes int) bool {
	if p.usedContexts+1 > p.cfg.Contexts || p.usedBytes+bytes > p.cfg.Bytes {
		return false
	}
	p.usedContexts++
	p.usedBytes += bytes
	return true
}

func (p *pool) release(bytes int) {
	p.usedContexts--
	p.usedBytes -= bytes
	if p.usedContexts < 0 || p.usedBytes < 0 {
		panic(fmt.Sprintf("tl: pool released below zero (ctx=%d bytes=%d)", p.usedContexts, p.usedBytes))
	}
}

func (p *pool) occupancy() float64 {
	if p.cfg.Contexts == 0 {
		return 1
	}
	ctxFrac := float64(p.usedContexts) / float64(p.cfg.Contexts)
	byteFrac := 0.0
	if p.cfg.Bytes > 0 {
		byteFrac = float64(p.usedBytes) / float64(p.cfg.Bytes)
	}
	if byteFrac > ctxFrac {
		return byteFrac
	}
	return ctxFrac
}

// Resources is the NIC-wide resource manager shared by all connections on
// one Falcon instance.
type Resources struct {
	cfg   ResourceConfig
	pools [numPools]*pool

	// perConn and perConnBytes track contexts and buffer bytes held per
	// connection, the inputs to dynamic-threshold isolation (§4.6).
	perConn      connInts
	perConnBytes connInts

	// onRelease subscribers are notified when resources free up
	// (the Xon edge for backpressured ULPs).
	onRelease []releaseSub
	// alwaysRun counts subscribers registered through the public
	// Subscribe: their neediness is unknown, so they fire on every
	// release.
	alwaysRun int

	// needy counts subscribed connections whose callback would currently
	// do real work (a deferred response to drain, or an Xoff'd ULP that
	// installed an Xon callback to wake; see Conn.updateNeedy). When
	// zero, Release skips the connection fan-out entirely — the common
	// case on the hot path, where every packet ack used to pay a call
	// per connection on the node. When non-zero, ALL subscribers still
	// run in subscription order (the needy set is not tracked
	// per-callback), so observable callback order is unchanged.
	needy int
}

// NewResources builds the resource manager.
func NewResources(cfg ResourceConfig) *Resources {
	r := &Resources{cfg: cfg}
	for i := range r.pools {
		r.pools[i] = &pool{cfg: cfg.Pools[i]}
	}
	return r
}

// needyDelta adjusts the count of connections awaiting a release
// notification (see Conn.updateNeedy).
func (r *Resources) needyDelta(d int) { r.needy += d }

// Reserve takes one context plus bytes from the pool on behalf of conn.
func (r *Resources) Reserve(k PoolKind, conn uint32, bytes int) error {
	p := r.pools[k]
	if !p.tryReserve(bytes) {
		return errPoolExhausted[k]
	}
	p.connCtx.add(conn, 1)
	p.connBytes.add(conn, bytes)
	r.perConn.add(conn, 1)
	r.perConnBytes.add(conn, bytes)
	return nil
}

// Release returns one context plus bytes to the pool.
func (r *Resources) Release(k PoolKind, conn uint32, bytes int) {
	p := r.pools[k]
	p.release(bytes)
	p.connCtx.add(conn, -1)
	p.connBytes.add(conn, -bytes)
	r.perConn.add(conn, -1)
	r.perConnBytes.add(conn, -bytes)
	if r.needy > 0 {
		for _, s := range r.onRelease {
			s.fn()
		}
	} else if r.alwaysRun > 0 {
		for _, s := range r.onRelease {
			if !s.skippable {
				s.fn()
			}
		}
	}
}

// Occupancy returns the pool's max(context, byte) occupancy fraction.
func (r *Resources) Occupancy(k PoolKind) float64 { return r.pools[k].occupancy() }

// RxOccupancy is the NIC congestion signal carried in ACKs: occupancy of
// the receive-side pools.
func (r *Resources) RxOccupancy() float64 {
	rq := r.pools[PoolRxReq].occupancy()
	rr := r.pools[PoolRxResp].occupancy()
	if rr > rq {
		return rr
	}
	return rq
}

// FreeContexts returns the total free contexts across all pools, the
// denominator of the DT threshold.
func (r *Resources) FreeContexts() int {
	free := 0
	for _, p := range r.pools {
		free += p.cfg.Contexts - p.usedContexts
	}
	return free
}

// ConnUsage returns the contexts currently held by conn.
func (r *Resources) ConnUsage(conn uint32) int { return r.perConn.at(conn) }

// ConnBytes returns the buffer bytes currently held by conn.
func (r *Resources) ConnBytes(conn uint32) int { return r.perConnBytes.at(conn) }

// OverDTThreshold applies the dynamic-threshold rule per pool (§4.6): the
// connection is over-threshold if in ANY pool its holdings exceed
// α·(free resources of that pool), in contexts or bytes. Per-pool
// evaluation matters: one exhausted pool must not be masked by slack in
// the others.
func (r *Resources) OverDTThreshold(conn uint32, alpha float64) bool {
	for _, p := range r.pools {
		freeCtx := float64(p.cfg.Contexts - p.usedContexts)
		if float64(p.connCtx.at(conn)) > alpha*freeCtx {
			return true
		}
		freeBytes := float64(p.cfg.Bytes - p.usedBytes)
		if float64(p.connBytes.at(conn)) > alpha*freeBytes {
			return true
		}
	}
	return false
}

// AdmitRxRequest applies the RxReq admission rule: below the occupancy
// threshold, all requests are admitted; beyond it, only head-of-line
// requests (§4.5), preventing non-HoL requests from occupying everything
// and deadlocking ordered connections.
func (r *Resources) AdmitRxRequest(conn uint32, bytes int, headOfLine bool) error {
	if r.pools[PoolRxReq].occupancy() >= r.cfg.HoLAdmissionThreshold && !headOfLine {
		return errBeyondHoL
	}
	return r.Reserve(PoolRxReq, conn, bytes)
}

// releaseSub is one release subscriber. Skippable subscribers (TL
// connections) keep the shared needy count accurate and may be skipped
// when it is zero; others always run.
type releaseSub struct {
	fn        func()
	skippable bool
}

// Subscribe registers a callback invoked whenever resources are released.
func (r *Resources) Subscribe(fn func()) {
	r.onRelease = append(r.onRelease, releaseSub{fn: fn})
	r.alwaysRun++
}

// subscribeConn registers a connection's release callback; the connection
// maintains the needy count that lets Release skip it when idle.
func (r *Resources) subscribeConn(fn func()) {
	r.onRelease = append(r.onRelease, releaseSub{fn: fn, skippable: true})
}
