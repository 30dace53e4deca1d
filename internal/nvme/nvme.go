// Package nvme is the NVMe ULP mapping layer of Figure 2 and the basis of
// Near Local Flash (§6.3, Table 4): it disaggregates SSDs over Falcon.
//
// The transaction mapping follows Table 2:
//
//   - NVMe Read  → Pull: the client pulls data; the controller answers
//     asynchronously once the device completes (tl.TargetAsync).
//   - NVMe Write → Push and Pull: the client pushes the command, the
//     controller pulls the data from the client (requests flowing
//     controller→client on the same bidirectional Falcon connection), and
//     a completion push closes the command — the NVMe CQE.
//
// Both ends segment data by their connection's MTU and submit every
// transaction through tl.Conn.Submit: work the transaction layer refuses is
// parked there and resumes on the connection's Xon edge.
//
// The Device type is the SSD substitute (the paper used real SSDs):
// per-channel parallelism, per-op base latency, bandwidth caps and an
// optional IOPS limit, enough to reproduce Table 4's relative numbers.
package nvme

import (
	"encoding/binary"
	"errors"
	"time"

	"falcon/internal/core"
	"falcon/internal/falcon/tl"
	"falcon/internal/falcon/wire"
	"falcon/internal/sim"
)

// ULP op codes.
const (
	opRead uint8 = iota + 0x20
	opWriteCmd
	opWriteData
	opCompletion
)

// DeviceConfig models one SSD.
type DeviceConfig struct {
	// ReadLatency/WriteLatency are per-command base service times.
	ReadLatency, WriteLatency time.Duration
	// ReadGbps/WriteGbps cap data movement per channel.
	ReadGbps, WriteGbps float64
	// Channels is the number of independent flash channels.
	Channels int
	// MaxIOPS caps command admission (0 = uncapped).
	MaxIOPS float64
}

// DefaultDeviceConfig models a datacenter NVMe SSD (~80us read, ~20us
// cached write; 7 Gbps read and 4 Gbps write per channel × 8 channels ≈
// 7 GB/s read, 4 GB/s write aggregate).
func DefaultDeviceConfig() DeviceConfig {
	return DeviceConfig{
		ReadLatency:  80 * time.Microsecond,
		WriteLatency: 20 * time.Microsecond,
		ReadGbps:     7,
		WriteGbps:    4,
		Channels:     8,
	}
}

// Device is the SSD service-time model.
type Device struct {
	sim      *sim.Simulator
	cfg      DeviceConfig
	chanFree []sim.Time
	iopsFree sim.Time

	// Stats
	Reads, Writes uint64
	BytesRead     uint64
	BytesWritten  uint64
}

// NewDevice creates a device bound to the simulator.
func NewDevice(s *sim.Simulator, cfg DeviceConfig) *Device {
	if cfg.Channels <= 0 {
		cfg.Channels = 1
	}
	return &Device{sim: s, cfg: cfg, chanFree: make([]sim.Time, cfg.Channels)}
}

func (d *Device) admit() sim.Time {
	now := d.sim.Now()
	start := now
	if d.cfg.MaxIOPS > 0 {
		if d.iopsFree > start {
			start = d.iopsFree
		}
		d.iopsFree = start.Add(time.Duration(1e9 / d.cfg.MaxIOPS))
	}
	return start
}

func (d *Device) schedule(start sim.Time, base time.Duration, bytes int, gbps float64, done func()) {
	// Earliest-free channel.
	best := 0
	for i, f := range d.chanFree {
		if f < d.chanFree[best] {
			best = i
		}
	}
	if d.chanFree[best] > start {
		start = d.chanFree[best]
	}
	service := base + time.Duration(float64(bytes)*8/gbps)
	finish := start.Add(service)
	d.chanFree[best] = finish
	d.sim.At(finish, done)
}

// Read services an n-byte device read, invoking done at completion.
func (d *Device) Read(n int, done func()) {
	d.Reads++
	d.BytesRead += uint64(n)
	d.schedule(d.admit(), d.cfg.ReadLatency, n, d.cfg.ReadGbps, done)
}

// Write services an n-byte device write.
func (d *Device) Write(n int, done func()) {
	d.Writes++
	d.BytesWritten += uint64(n)
	d.schedule(d.admit(), d.cfg.WriteLatency, n, d.cfg.WriteGbps, done)
}

// Controller is the target-side NVMe-over-Falcon endpoint: it owns the
// device and serves the client's commands.
type Controller struct {
	ep  *core.Endpoint
	dev *Device

	// Pending write commands being gathered from the client.
	writes map[uint64]*writeState
	// Pending read commands: one device operation serves every pull
	// chunk of the command.
	reads map[uint64]*readState
}

type readState struct {
	devDone  bool
	expected int // chunks this command will serve in total
	served   int
	waiting  []pendingChunk
}

type pendingChunk struct {
	rsn uint64
	n   uint32
}

type writeState struct {
	id        uint64
	total     int
	issued    int // offset of the next data pull to issue
	pulled    int
	remaining int
}

// NewController attaches a controller (and its device) to a Falcon
// endpoint.
func NewController(ep *core.Endpoint, dev *Device) *Controller {
	c := &Controller{
		ep: ep, dev: dev,
		writes: make(map[uint64]*writeState),
		reads:  make(map[uint64]*readState),
	}
	ep.SetTarget((*ctrlTarget)(c))
	return c
}

// ctrlTarget is the controller's TL handler.
type ctrlTarget Controller

var _ tl.TargetHandler = (*ctrlTarget)(nil)

// HandlePush receives write commands (and nothing else at the controller).
func (t *ctrlTarget) HandlePush(rsn uint64, p *wire.Packet) tl.TargetVerdict {
	c := (*Controller)(t)
	if p.UlpOp != opWriteCmd {
		return tl.TargetVerdict{Kind: tl.TargetError}
	}
	id := p.Addr
	total := int(binary.BigEndian.Uint32(p.Data[:4]))
	c.writes[id] = &writeState{id: id, total: total, remaining: total}
	c.pullWriteData(c.writes[id])
	return tl.TargetVerdict{}
}

// pullWriteData issues the data pulls for a write command (Table 2: NVMe
// Write is Push and Pull). Backpressure parks issuance, which resumes from
// the current offset on Xon; a dead connection drops the command.
func (c *Controller) pullWriteData(ws *writeState) {
	if ws.total == 0 {
		c.dev.Write(0, func() { c.finishWrite(ws, nil) })
		return
	}
	c.ep.TL().Submit(func() bool { return c.issueWriteData(ws) })
}

// issueWriteData issues ws's data pulls from ws.issued on and reports
// whether it is done, as tl.Conn.Submit work.
func (c *Controller) issueWriteData(ws *writeState) bool {
	mtu := c.ep.TL().MTU()
	for ws.issued < ws.total {
		off := ws.issued
		seg := ws.total - off
		if seg > mtu {
			seg = mtu
		}
		segLen := seg
		if _, err := c.ep.TL().PullOp(opWriteData, ws.id<<32|uint64(off), uint32(seg), func(_ []byte, err error) {
			if err != nil {
				c.finishWrite(ws, err)
				return
			}
			ws.pulled += segLen
			if ws.pulled >= ws.total {
				// All data landed: commit to the device, then
				// complete the command.
				c.dev.Write(ws.total, func() { c.finishWrite(ws, nil) })
			}
		}); err != nil {
			if c.ep.TL().Dead() != nil {
				delete(c.writes, ws.id)
				return true
			}
			return false
		}
		ws.issued += seg
	}
	return true
}

// finishWrite pushes the completion (the CQE) back to the client, parked
// behind backpressure like the data pulls, or drops it once the connection
// is dead.
func (c *Controller) finishWrite(ws *writeState, err error) {
	delete(c.writes, ws.id)
	status := make([]byte, 1)
	if err != nil {
		status[0] = 1
	}
	c.ep.TL().Submit(func() bool {
		_, e := c.ep.TL().PushOp(opCompletion, ws.id, status, 1, nil)
		return e == nil || c.ep.TL().Dead() != nil
	})
}

// HandlePull serves read commands, answering asynchronously after the
// device's service time. The MTU-sized pull chunks of one client Read all
// carry the same read ID: the first chunk starts a single device command
// for the whole read, and every chunk's response is released when that
// command completes (an NVMe read is one device operation regardless of
// how the transport segments the data). Both ends of a connection share its
// MTU, so the controller counts the chunks the client sends.
func (t *ctrlTarget) HandlePull(rsn uint64, p *wire.Packet) ([]byte, uint32, tl.TargetVerdict) {
	c := (*Controller)(t)
	if p.UlpOp != opRead {
		return nil, 0, tl.TargetVerdict{Kind: tl.TargetError}
	}
	id := p.Addr >> 32
	total := int(uint32(p.Addr))
	rs, ok := c.reads[id]
	if !ok {
		expected := 1
		if mtu := c.ep.TL().MTU(); total > mtu {
			expected = (total + mtu - 1) / mtu
		}
		rs = &readState{expected: expected}
		c.reads[id] = rs
		c.dev.Read(total, func() {
			rs.devDone = true
			for _, ch := range rs.waiting {
				c.ep.TL().CompletePull(ch.rsn, nil, ch.n)
			}
			rs.served += len(rs.waiting)
			rs.waiting = nil
			if rs.served >= rs.expected {
				delete(c.reads, id)
			}
		})
	}
	if rs.devDone {
		// A chunk arriving after the device completed (the client's
		// pulls can be spread out by backpressure) is served from the
		// already-read data.
		rs.served++
		if rs.served >= rs.expected {
			delete(c.reads, id)
		}
		return nil, p.PullLength, tl.TargetVerdict{}
	}
	rs.waiting = append(rs.waiting, pendingChunk{rsn: rsn, n: p.PullLength})
	return nil, 0, tl.TargetVerdict{Kind: tl.TargetAsync}
}

// Client is the initiator-side NVMe-over-Falcon API.
type Client struct {
	ep *core.Endpoint

	nextWriteID uint64
	nextReadID  uint64
	// Outstanding writes awaiting their completion push.
	writes map[uint64]*clientWrite
}

type clientWrite struct {
	total int
	done  func(error)
}

// ErrDevice reports a failed command.
var ErrDevice = errors.New("nvme: device error")

// NewClient attaches a client to a Falcon endpoint; its TL handler serves
// the controller's data pulls and completion pushes.
func NewClient(ep *core.Endpoint) *Client {
	c := &Client{ep: ep, nextWriteID: 1, writes: make(map[uint64]*clientWrite)}
	ep.SetTarget((*clientTarget)(c))
	return c
}

// Read issues an n-byte read at the logical block address; done fires when
// all data has arrived. The read is one device command; the transport
// segments the data into MTU pulls sharing a read ID. Chunks refused by
// transaction-layer backpressure wait for the connection's Xon edge; on a
// dead connection the chunks never issued complete with its error, so done
// fires exactly once either way.
func (c *Client) Read(lba uint64, n int, done func(error)) error {
	id := c.nextReadID
	c.nextReadID++
	mtu := c.ep.TL().MTU()
	segs := 1
	if n > mtu {
		segs = (n + mtu - 1) / mtu
	}
	remaining := segs
	var firstErr error
	chunkDone := func(_ []byte, err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
		remaining--
		if remaining == 0 && done != nil {
			done(firstErr)
		}
	}
	addr := id<<32 | uint64(uint32(n))
	i, off := 0, 0
	c.ep.TL().Submit(func() bool {
		for ; i < segs; i++ {
			seg := n - off
			if seg > mtu {
				seg = mtu
			}
			if _, err := c.ep.TL().PullOp(opRead, addr, uint32(seg), chunkDone); err != nil {
				if dead := c.ep.TL().Dead(); dead != nil {
					for ; i < segs; i++ {
						chunkDone(nil, dead)
					}
					return true
				}
				return false
			}
			off += seg
		}
		return true
	})
	return nil
}

// Write issues an n-byte write; the command is pushed, the controller
// pulls the data, and done fires on the completion push. A command push
// refused by transaction-layer backpressure waits for the connection's Xon
// edge behind the client's other waiting work; on a dead connection done
// fires once with its error.
func (c *Client) Write(lba uint64, n int, done func(error)) error {
	id := c.nextWriteID
	c.nextWriteID++
	cmd := make([]byte, 8)
	binary.BigEndian.PutUint32(cmd, uint32(n))
	binary.BigEndian.PutUint32(cmd[4:], uint32(lba))
	c.writes[id] = &clientWrite{total: n, done: done}
	c.ep.TL().Submit(func() bool {
		if _, err := c.ep.TL().PushOp(opWriteCmd, id, cmd, uint32(len(cmd)), nil); err != nil {
			dead := c.ep.TL().Dead()
			if dead == nil {
				return false
			}
			delete(c.writes, id)
			if done != nil {
				done(dead)
			}
		}
		return true
	})
	return nil
}

// clientTarget serves the controller-initiated transactions at the client.
type clientTarget Client

var _ tl.TargetHandler = (*clientTarget)(nil)

// HandlePush receives write completions (CQEs).
func (t *clientTarget) HandlePush(rsn uint64, p *wire.Packet) tl.TargetVerdict {
	c := (*Client)(t)
	if p.UlpOp != opCompletion {
		return tl.TargetVerdict{Kind: tl.TargetError}
	}
	id := p.Addr
	w, ok := c.writes[id]
	if !ok {
		return tl.TargetVerdict{}
	}
	delete(c.writes, id)
	var err error
	if p.Data != nil && len(p.Data) > 0 && p.Data[0] != 0 {
		err = ErrDevice
	}
	if w.done != nil {
		w.done(err)
	}
	return tl.TargetVerdict{}
}

// HandlePull serves the controller's write-data pulls from the client's
// buffers (size-only).
func (t *clientTarget) HandlePull(rsn uint64, p *wire.Packet) ([]byte, uint32, tl.TargetVerdict) {
	if p.UlpOp != opWriteData {
		return nil, 0, tl.TargetVerdict{Kind: tl.TargetError}
	}
	return nil, p.PullLength, tl.TargetVerdict{}
}
