package testkit

import (
	"fmt"

	"falcon/internal/falcon/pdl"
	"falcon/internal/falcon/tl"
	"falcon/internal/falcon/wire"
	"falcon/internal/netsim"
	"falcon/internal/sim"
)

// TraceHasher folds a simulation's observable behaviour into a streaming
// 64-bit FNV-1a digest. It implements every probe interface the repository
// exposes — sim.Observer (scheduler events), pdl.Probe (packet sends and
// receives), tl.Probe (transaction serves and completions) — plus a
// netsim host tap for wire-level frame arrivals, so one instance attached
// everywhere fingerprints an entire run.
//
// The digest is order- and content-sensitive: two runs produce the same
// Sum64 only if they deliver the same records, with the same fields, in
// the same order. A run with a fixed seed is therefore bit-for-bit
// reproducible exactly when its trace hash is stable, which is the
// property the determinism sweeps assert.
//
// Record format (see DESIGN.md §7 "Verification"): each record is a
// one-byte tag followed by the record's fields, each serialized as 8
// little-endian bytes and folded byte-wise into the running FNV-1a state.
type TraceHasher struct {
	h       uint64
	records uint64

	// ph is a second digest over protocol records only — every tag except
	// the scheduler's 'E' events. Two runs that differ in event-queue
	// mechanics (e.g. a different timer re-arming scheme, which wakes at
	// different instants but acts identically) diverge on Sum64 while
	// agreeing on ProtoSum64; the committed golden pins both.
	ph           uint64
	protoRecords uint64
}

// FNV-1a 64-bit parameters.
const (
	fnvOffset64 = 0xcbf29ce484222325
	fnvPrime64  = 0x100000001b3
)

// Record tags, one per probe source.
const (
	tagSimEvent   byte = 'E' // sim.Observer: (time, seq)
	tagSend       byte = 'S' // pdl send: (conn, space, psn, rsn, type|flags, flowlabel)
	tagReceive    byte = 'R' // pdl receive: packet identity + window state
	tagFrame      byte = 'F' // netsim frame delivery
	tagServe      byte = 'U' // tl target serve: (conn, rsn)
	tagCompletion byte = 'C' // tl initiator completion: (conn, rsn, errbit)
)

// NewTraceHasher returns an empty hasher.
func NewTraceHasher() *TraceHasher { return &TraceHasher{h: fnvOffset64, ph: fnvOffset64} }

// write folds one record into the digest.
func (t *TraceHasher) write(tag byte, fields ...uint64) {
	t.records++
	h := t.h ^ uint64(tag)
	h *= fnvPrime64
	for _, f := range fields {
		for i := 0; i < 8; i++ {
			h ^= f & 0xff
			h *= fnvPrime64
			f >>= 8
		}
	}
	t.h = h
	if tag == tagSimEvent {
		return
	}
	t.protoRecords++
	p := t.ph ^ uint64(tag)
	p *= fnvPrime64
	for _, f := range fields {
		for i := 0; i < 8; i++ {
			p ^= f & 0xff
			p *= fnvPrime64
			f >>= 8
		}
	}
	t.ph = p
}

// Sum64 returns the current digest.
func (t *TraceHasher) Sum64() uint64 { return t.h }

// Records returns how many records have been folded in.
func (t *TraceHasher) Records() uint64 { return t.records }

// ProtoSum64 returns the protocol-only digest: every record except
// scheduler 'E' events.
func (t *TraceHasher) ProtoSum64() uint64 { return t.ph }

// ProtoRecords returns how many protocol records ProtoSum64 covers.
func (t *TraceHasher) ProtoRecords() uint64 { return t.protoRecords }

// String renders the digest in the canonical printable form.
func (t *TraceHasher) String() string {
	return fmt.Sprintf("fnv1a:%016x/%d", t.h, t.records)
}

// OnEvent implements sim.Observer: every delivered scheduler event is
// fingerprinted by its (virtual time, sequence number) pair. Any
// divergence in scheduling order between two runs changes the digest.
func (t *TraceHasher) OnEvent(at sim.Time, seq uint64) {
	t.write(tagSimEvent, uint64(at), seq)
}

// OnSend implements the pdl.Probe send hook.
func (t *TraceHasher) OnSend(c *pdl.Conn, p *wire.Packet, retransmit bool) {
	r := uint64(0)
	if retransmit {
		r = 1
	}
	t.write(tagSend,
		uint64(c.ID()), uint64(p.Space), uint64(p.PSN), p.RSN,
		uint64(p.Type)<<32|uint64(p.Flags)<<8|r, uint64(p.FlowLabel))
}

// OnReceive implements the pdl.Probe receive hook. Besides the packet
// identity it folds in the connection's post-event window state, so state
// divergence is caught even when packet streams happen to match.
func (t *TraceHasher) OnReceive(c *pdl.Conn, p *wire.Packet) {
	reqBase, reqBm := c.RxState(wire.SpaceRequest)
	respBase, respBm := c.RxState(wire.SpaceResponse)
	txReqBase, txReqNext, txReqOut := c.TxState(wire.SpaceRequest)
	txRespBase, txRespNext, txRespOut := c.TxState(wire.SpaceResponse)
	t.write(tagReceive,
		uint64(c.ID()), uint64(p.Space), uint64(p.PSN), p.RSN,
		uint64(p.Type)<<32|uint64(p.NackCode)<<8|uint64(p.Flags),
		uint64(reqBase)<<32|uint64(respBase), reqBm[0], reqBm[1], respBm[0], respBm[1],
		uint64(txReqBase)<<32|uint64(txReqNext),
		uint64(txRespBase)<<32|uint64(txRespNext),
		uint64(txReqOut)<<32|uint64(txRespOut),
		p.CompletedRSN)
}

// OnRequestServed implements the tl.Probe target hook.
func (t *TraceHasher) OnRequestServed(c *tl.Conn, rsn uint64) {
	t.write(tagServe, uint64(c.ID()), rsn)
}

// OnCompletion implements the tl.Probe initiator hook.
func (t *TraceHasher) OnCompletion(c *tl.Conn, rsn uint64, err error) {
	e := uint64(0)
	if err != nil {
		e = 1
	}
	t.write(tagCompletion, uint64(c.ID()), rsn, e)
}

// TapFrame is a netsim host tap (install with Host.SetTap) fingerprinting
// wire-level frame deliveries.
func (t *TraceHasher) TapFrame(f *netsim.Frame) {
	t.write(tagFrame,
		uint64(f.Src)<<32|uint64(f.Dst), f.FlowHash,
		uint64(f.Size), uint64(f.SentAt), uint64(f.Hops))
}
