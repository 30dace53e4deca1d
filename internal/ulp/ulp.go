// Package ulp is the message layer both ULPs post through (Figure 2, Table
// 2): one pooled descriptor maps an operation of any size onto the Push or
// Pull transactions of a tl.Conn. It segments the op by the connection's
// MTU (a zero-byte op is still one transaction), addresses each segment,
// submits the segments through tl.Conn.Submit so a refused op waits in the
// TL's park queue and resumes from its cursor on the Xon edge, fails the
// segments never issued once the connection is dead, counts push
// completions, reassembles pull segments in order, and hands the ULP's
// per-op context to the completion function bound to its Port.
//
// Descriptors recycle through a sim.FreeList the ULP keeps per kind of op.
// A descriptor is back in its pool before the completion function
// runs, so that function may post the next op on the same descriptor.
package ulp

import (
	"falcon/internal/falcon/tl"
	"falcon/internal/falcon/wire"
	"falcon/internal/sim"
)

// poolCap bounds each descriptor free list; beyond it descriptors are
// dropped to the GC (a connection rarely has more than a send queue's worth
// outstanding).
const poolCap = 64

// Msg describes one ULP operation.
type Msg struct {
	// Pull selects a Pull transaction per segment; otherwise Push.
	Pull bool
	// Fixed gives every segment Addr itself; otherwise segment i carries
	// Addr plus its byte offset.
	Fixed bool
	// Op is the ULP op code carried in wire.Packet.UlpOp.
	Op   uint8
	Addr uint64
	// Data is a push's payload, segmented with it, or a pull's request
	// bytes (e.g. atomic operands), sent whole; nil moves sizes only.
	Data []byte
	// Size is the bytes the op pushes or pulls.
	Size int
}

// Port posts ops on one TL connection and completes them through one
// function, bound when the port is made.
type Port[C any] struct {
	conn     *tl.Conn
	complete func(ctx C, data []byte, err error)
	out      int
}

// NewPort binds a port to conn. complete receives each finished op's
// context, its first error, and for a pull the bytes of its segments in
// order: a one-segment pull's bytes as they arrived, several segments'
// concatenated when every segment carried bytes and none failed.
func NewPort[C any](conn *tl.Conn, complete func(ctx C, data []byte, err error)) *Port[C] {
	return &Port[C]{conn: conn, complete: complete}
}

// Out reports the descriptors taken from the port's pools and not yet
// returned: zero when no op is in flight.
func (p *Port[C]) Out() int { return p.out }

// Op is the in-flight state of one operation: its message and its segment
// cursor. It is the op's tl.Work and its push segments' tl.Completer, and
// each pull segment's slot is that segment's tl.Completer, so neither
// posting, parking nor resuming the op binds a closure or allocates.
type Op[C any] struct {
	port *Port[C]
	pool *sim.FreeList[Op[C]]
	ctx  C
	m    Msg

	// Segments not yet completed and the next segment to issue; 32 bits
	// keep a pooled descriptor and its free-list link in one size class.
	left, next int32
	err        error

	// A pull's segments, one slot each; the slice only grows, at post
	// time, when no transaction completing into the old slots is
	// outstanding.
	slots []slot[C]
}

// slot is one pull segment's completion: the TL's callback does not say
// which transaction it is for, and an unordered connection completes
// segments out of order, so each parks its bytes here.
type slot[C any] struct {
	o    *Op[C]
	data []byte
}

// Post starts m from pool, parking it in the TL while refused. Failures
// arrive through the completion function, exactly once.
func (p *Port[C]) Post(pool *sim.FreeList[Op[C]], m Msg, ctx C) {
	p.conn.Submit(p.get(pool, m, ctx))
}

// Try issues a one-segment op now or not at all: it is refused while other
// work waits in the TL, and a refusal is returned with no completion to
// follow.
func (p *Port[C]) Try(pool *sim.FreeList[Op[C]], m Msg, ctx C) error {
	if p.conn.Parked() > 0 {
		return tl.ErrBackpressured
	}
	o := p.get(pool, m, ctx)
	if err := o.m.send(p.conn, 0, o.segDone(0)); err != nil {
		o.put()
		return err
	}
	return nil
}

func (p *Port[C]) get(pool *sim.FreeList[Op[C]], m Msg, ctx C) *Op[C] {
	o := pool.Get()
	o.port, o.pool = p, pool
	nseg := wire.Segments(m.Size, tl.MTU)
	if m.Pull && nseg > len(o.slots) {
		o.slots = make([]slot[C], nseg)
		for i := range o.slots {
			o.slots[i].o = o
		}
	}
	o.m, o.ctx, o.left, o.next = m, ctx, int32(nseg), 0
	p.out++
	return o
}

// put returns the descriptor to its pool. Callers copy out what they still
// need first: a completion may post a new op and reuse it immediately.
func (o *Op[C]) put() {
	var zero C
	o.ctx, o.m.Data, o.err = zero, nil, nil
	o.port.out--
	if o.pool.Free() < poolCap {
		o.pool.Put(o)
	}
}

// segDone returns segment i's completion: its slot for a pull, the op
// itself for a push.
func (o *Op[C]) segDone(i int) tl.Completer {
	if o.m.Pull {
		return &o.slots[i]
	}
	return o
}

// send issues segment i.
func (m *Msg) send(conn *tl.Conn, i int, done tl.Completer) error {
	off, seg := wire.Segment(m.Size, tl.MTU, i)
	addr := m.Addr
	if !m.Fixed {
		addr += uint64(off)
	}
	var err error
	if m.Pull {
		_, err = conn.PullOpData(m.Op, addr, m.Data, uint32(seg), done)
	} else {
		var chunk []byte
		if m.Data != nil {
			chunk = m.Data[off : off+seg]
		}
		_, err = conn.PushOp(m.Op, addr, chunk, uint32(seg), done)
	}
	return err
}

// Issue is the op's tl.Work: it issues the op's segments from its cursor
// on, returning false when the TL refused one, with the cursor at that
// segment, and true once every segment is issued, or failed because the
// connection is dead. It reads the loop bounds into locals up front: the
// final segment's completion can release (and a nested post can reuse) the
// descriptor while the loop still runs.
func (o *Op[C]) Issue() bool {
	conn := o.port.conn
	nseg := wire.Segments(o.m.Size, tl.MTU)
	for i := int(o.next); i < nseg; i++ {
		if err := o.m.send(conn, i, o.segDone(i)); err != nil {
			dead := conn.Dead()
			if dead == nil {
				o.next = int32(i)
				return false
			}
			for ; i < nseg; i++ {
				o.segDone(i).Complete(nil, dead)
			}
			return true
		}
	}
	return true
}

// Complete is a pull segment's tl.Completer: it parks the segment's bytes
// and counts it.
func (s *slot[C]) Complete(data []byte, err error) {
	s.data = data
	s.o.Complete(data, err)
}

// Complete is a push segment's tl.Completer: it counts one finished
// segment, and the last one completes the op.
func (o *Op[C]) Complete(data []byte, err error) {
	if err != nil && o.err == nil {
		o.err = err
	}
	if o.left--; o.left > 0 {
		return
	}
	var out []byte
	if o.m.Pull {
		out = o.gather()
	}
	p, ctx, err := o.port, o.ctx, o.err
	o.put()
	p.complete(ctx, out, err)
}

// gather assembles a finished pull's bytes and clears its slots.
func (o *Op[C]) gather() []byte {
	slots := o.slots[:wire.Segments(o.m.Size, tl.MTU)]
	out := slots[0].data
	if len(slots) > 1 {
		out = nil
		total, whole := 0, o.err == nil
		for i := range slots {
			total += len(slots[i].data)
			whole = whole && slots[i].data != nil
		}
		if whole && total > 0 {
			out = make([]byte, 0, total)
			for i := range slots {
				out = append(out, slots[i].data...)
			}
		}
	}
	for i := range slots {
		slots[i].data = nil
	}
	return out
}
