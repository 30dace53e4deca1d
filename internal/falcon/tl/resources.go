// Package tl implements Falcon's Transaction Layer (§4.4–§4.6): the
// request-response transaction interface offered to ULPs, on-NIC resource
// admission with deadlock-free carving, RSN-based ordering, RNR/CIE error
// semantics, and dynamic-threshold connection isolation with Xon/Xoff
// backpressure: work a connection refuses is parked in the connection and
// resumed on its Xon edge (Conn.Submit).
package tl

import (
	"errors"
	"fmt"
	"math"

	"falcon/internal/falcon/ring"
	"falcon/internal/sim"
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
// response drains, ULPs resumed on Xon), so reserve and admitRxRequest
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

type pool struct {
	cfg          PoolConfig
	usedContexts int
	usedBytes    int
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
// one Falcon instance. It keeps the node's totals per pool; what each
// connection holds lives on the connection (Conn.held).
type Resources struct {
	cfg   ResourceConfig
	pools [numPools]pool

	// waiters holds, in refusal order, the connections a full pool
	// refused and those holding deferred responses: the ones any release
	// may unblock. A connection refused by its DT threshold is not here;
	// only its own releases can lower its holdings (see Conn.unreserve).
	waiters ring.Ring[*Conn]

	// waking is set while a release wakes connections, so a release
	// nested inside a wake (a refused ULP rolling back a partial
	// reservation) does its accounting and starts no second walk.
	waking bool

	// txns is the free list the node's transaction contexts recycle
	// through. The §4.5 per-NIC limit is the pool counters above, not this
	// list: the Go objects behind the contexts are shared by every node
	// of a cluster (ShareTxnContexts), so the list keeps the cluster's
	// peak of open transactions, not one peak per node.
	txns *sim.FreeList[txn]
}

// NewResources builds the resource manager. A connection's holding in a
// pool is an int32, so a pool may hold at most math.MaxInt32 contexts and
// bytes.
func NewResources(cfg ResourceConfig) *Resources {
	r := &Resources{cfg: cfg, txns: new(sim.FreeList[txn])}
	for k, pc := range cfg.Pools {
		if pc.Contexts > math.MaxInt32 || pc.Bytes > math.MaxInt32 {
			panic(fmt.Sprintf("tl: %v pool of %d contexts and %d bytes exceeds math.MaxInt32", PoolKind(k), pc.Contexts, pc.Bytes))
		}
		r.pools[k].cfg = pc
	}
	return r
}

// enqueue appends c to the waiters unless it is already waiting, in which
// case it keeps its place.
func (r *Resources) enqueue(c *Conn) {
	if !c.queued {
		c.queued = true
		r.waiters.Push(c)
	}
}

// dequeue takes c out of the waiters, keeping the others in refusal order.
func (r *Resources) dequeue(c *Conn) {
	for i := r.waiters.Len(); i > 0; i-- {
		if w := r.waiters.Pop(); w != c {
			r.waiters.Push(w)
		}
	}
	c.queued = false
}

// freeTxn recycles a released transaction context, dropping its payload
// and callback references.
func (r *Resources) freeTxn(t *txn) {
	*t = txn{}
	r.txns.Put(t)
}

// ShareTxnContexts makes r's transaction contexts recycle through with's
// free list, as the nodes of one event loop do. Call it before r's
// connections issue anything.
func (r *Resources) ShareTxnContexts(with *Resources) { r.txns = with.txns }

// TxnContexts reports how many transaction contexts the free list r draws
// from has built and how many are on it: equal once every transaction of
// every Resources sharing it completed.
func (r *Resources) TxnContexts() (built, free int) {
	return r.txns.Built(), r.txns.Free()
}

// reserve takes one context plus bytes from pool k on c's behalf.
func (c *Conn) reserve(k PoolKind, bytes int) error {
	if !c.res.pools[k].tryReserve(bytes) {
		return errPoolExhausted[k]
	}
	c.held[k].ctx++
	c.held[k].bytes += int32(bytes)
	return nil
}

// unreserve returns one context plus bytes of c's holding to pool k, then
// wakes what the release may have unblocked: first c, whose own holdings
// fell (a DT refusal waits for exactly this), then the waiters in refusal
// order, stopping at the first woken connection that a full pool refuses
// again. Per call that is O(1 + connections admitted).
func (c *Conn) unreserve(k PoolKind, bytes int) {
	h := &c.held[k]
	if h.ctx < 1 || int(h.bytes) < bytes {
		panic(fmt.Sprintf("tl: connection %d released below zero in %v (holds ctx=%d bytes=%d, releases 1 and %d)", c.id, k, h.ctx, h.bytes, bytes))
	}
	h.ctx--
	h.bytes -= int32(bytes)
	r := c.res
	r.pools[k].release(bytes)
	if r.waking {
		return
	}
	self := c.needy()
	if !self && r.waiters.Len() == 0 {
		return
	}
	r.waking = true
	if self {
		c.onResourcesFreed()
	}
	for r.waiters.Len() > 0 {
		w := r.waiters.Pop()
		w.queued = false
		if !w.needy() {
			continue // woken since it queued, or dead
		}
		w.onResourcesFreed()
		if w.queued {
			break
		}
	}
	r.waking = false
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

// admitRxRequest applies the RxReq admission rule: below the occupancy
// threshold, all requests are admitted; beyond it, only head-of-line
// requests (§4.5), preventing non-HoL requests from occupying everything
// and deadlocking ordered connections.
func (c *Conn) admitRxRequest(bytes int, headOfLine bool) error {
	if c.res.pools[PoolRxReq].occupancy() >= c.res.cfg.HoLAdmissionThreshold && !headOfLine {
		return errBeyondHoL
	}
	return c.reserve(PoolRxReq, bytes)
}
