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
// Both ends post every transaction through an internal/ulp descriptor,
// which segments data by the connection's MTU and parks work the
// transaction layer refuses until the connection's Xon edge.
//
// The Device type is the SSD substitute (the paper used real SSDs):
// per-channel parallelism, per-op base latency, bandwidth caps and an
// optional IOPS limit, enough to reproduce Table 4's relative numbers.
package nvme

import (
	"encoding/binary"
	"errors"
	"slices"
	"time"

	"falcon/internal/core"
	"falcon/internal/falcon/tl"
	"falcon/internal/falcon/wire"
	"falcon/internal/sim"
	"falcon/internal/ulp"
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
	// ReadLatency is the per-command base read service time.
	ReadLatency time.Duration
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
		ReadLatency: 80 * time.Microsecond,
		Channels:    8,
	}
}

// The device's fixed write latency and per-channel bandwidths.
const (
	// writeLatency is the per-command base write service time.
	writeLatency = 20 * time.Microsecond
	// readGbps/writeGbps cap data movement per channel.
	readGbps, writeGbps = 7, 4
)

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
	d.schedule(d.admit(), d.cfg.ReadLatency, n, readGbps, done)
}

// Write services an n-byte device write.
func (d *Device) Write(n int, done func()) {
	d.Writes++
	d.BytesWritten += uint64(n)
	d.schedule(d.admit(), writeLatency, n, writeGbps, done)
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

	// port pulls write data (context: the command) and pushes CQEs
	// (context: nil).
	port              *ulp.Port[*writeState]
	dataFree, cqeFree sim.FreeList[ulp.Op[*writeState]]
	freeWrites        []*writeState
	freeReads         []*readState
}

type readState struct {
	id       uint64
	devDone  bool
	expected int // chunks this command will serve in total
	served   int
	waiting  []pendingChunk
	devFn    func() // c.readDone(rs), bound once
}

type pendingChunk struct {
	rsn uint64
	n   uint32
}

type writeState struct {
	id    uint64
	total int
	devFn func() // c.finishWrite(ws, nil), bound once
}

// CQE status payloads: shared and read-only.
var cqeOK, cqeFailed = []byte{0}, []byte{1}

// NewController attaches a controller (and its device) to a Falcon
// endpoint.
func NewController(ep *core.Endpoint, dev *Device) *Controller {
	c := &Controller{
		ep: ep, dev: dev,
		writes: make(map[uint64]*writeState),
		reads:  make(map[uint64]*readState),
	}
	c.port = ulp.NewPort(ep.TL(), c.pulled)
	ep.SetTarget((*ctrlTarget)(c))
	return c
}

// ctrlTarget is the controller's TL handler.
type ctrlTarget Controller

var _ tl.TargetHandler = (*ctrlTarget)(nil)

// HandlePush receives write commands (and nothing else at the controller)
// and pulls their data from the client (Table 2: NVMe Write is Push and
// Pull). Backpressure parks the pulls in the TL, and a dead connection
// fails the command.
func (t *ctrlTarget) HandlePush(rsn uint64, p *wire.Packet) tl.TargetVerdict {
	c := (*Controller)(t)
	if p.UlpOp != opWriteCmd {
		return tl.TargetVerdict{Kind: tl.TargetError}
	}
	var ws *writeState
	if n := len(c.freeWrites); n > 0 {
		ws, c.freeWrites = c.freeWrites[n-1], c.freeWrites[:n-1]
	} else {
		ws = &writeState{}
		ws.devFn = func() { c.finishWrite(ws, nil) }
	}
	ws.id, ws.total = p.Addr, int(binary.BigEndian.Uint32(p.Data[:4]))
	c.writes[ws.id] = ws
	if ws.total == 0 {
		c.dev.Write(0, ws.devFn)
	} else {
		c.port.Post(&c.dataFree, ulp.Msg{Pull: true, Op: opWriteData, Addr: ws.id << 32, Size: ws.total}, ws)
	}
	return tl.TargetVerdict{}
}

// pulled is the port's completion function: once a command's data has
// landed, commit it to the device; a CQE push needs nothing more.
func (c *Controller) pulled(ws *writeState, _ []byte, err error) {
	switch {
	case ws == nil:
	case err != nil:
		c.finishWrite(ws, err)
	default:
		c.dev.Write(ws.total, ws.devFn)
	}
}

// finishWrite pushes the completion (the CQE) back to the client, parked
// behind backpressure like the data pulls, or dropped once the connection
// is dead.
func (c *Controller) finishWrite(ws *writeState, err error) {
	delete(c.writes, ws.id)
	status := cqeOK
	if err != nil {
		status = cqeFailed
	}
	c.port.Post(&c.cqeFree, ulp.Msg{Op: opCompletion, Addr: ws.id, Data: status, Size: 1}, nil)
	c.freeWrites = append(c.freeWrites, ws)
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
	rs, ok := c.reads[id]
	if !ok {
		if n := len(c.freeReads); n > 0 {
			rs, c.freeReads = c.freeReads[n-1], c.freeReads[:n-1]
		} else {
			rs = &readState{}
			rs.devFn = func() { c.readDone(rs) }
		}
		total := int(uint32(p.Addr))
		rs.id, rs.devDone, rs.served, rs.expected = id, false, 0, 1
		if mtu := c.ep.TL().MTU(); total > mtu {
			rs.expected = (total + mtu - 1) / mtu
		}
		c.reads[id] = rs
		c.dev.Read(total, rs.devFn)
	}
	if rs.devDone {
		// A chunk arriving after the device completed (the client's
		// pulls can be spread out by backpressure) is served from the
		// already-read data.
		c.serve(rs, 1)
		return nil, p.PullLength, tl.TargetVerdict{}
	}
	rs.waiting = append(rs.waiting, pendingChunk{rsn: rsn, n: p.PullLength})
	return nil, 0, tl.TargetVerdict{Kind: tl.TargetAsync}
}

// readDone releases every chunk waiting on the device.
func (c *Controller) readDone(rs *readState) {
	rs.devDone = true
	for _, ch := range rs.waiting {
		c.ep.TL().CompletePull(ch.rsn, nil, ch.n)
	}
	n := len(rs.waiting)
	rs.waiting = rs.waiting[:0]
	c.serve(rs, n)
}

// serve counts n chunks served and forgets the read after its last.
func (c *Controller) serve(rs *readState, n int) {
	if rs.served += n; rs.served >= rs.expected {
		delete(c.reads, rs.id)
		c.freeReads = append(c.freeReads, rs)
	}
}

// Client is the initiator-side NVMe-over-Falcon API.
type Client struct {
	ep *core.Endpoint

	nextWriteID uint64
	nextReadID  uint64
	// Outstanding writes awaiting their completion push.
	writes     map[uint64]*clientWrite
	freeWrites []*clientWrite

	// reads completes a Read through its done; cmds fails a Write whose
	// command push failed.
	reads    *ulp.Port[func(error)]
	cmds     *ulp.Port[uint64]
	readFree sim.FreeList[ulp.Op[func(error)]]
	cmdFree  sim.FreeList[ulp.Op[uint64]]
}

type clientWrite struct {
	cmd  [8]byte // the command push's payload: length and LBA
	done func(error)
}

// ErrDevice reports a failed command.
var ErrDevice = errors.New("nvme: device error")

// NewClient attaches a client to a Falcon endpoint; its TL handler serves
// the controller's data pulls and completion pushes.
func NewClient(ep *core.Endpoint) *Client {
	c := &Client{ep: ep, nextWriteID: 1, writes: make(map[uint64]*clientWrite)}
	c.reads = ulp.NewPort(ep.TL(), func(done func(error), _ []byte, err error) {
		if done != nil {
			done(err)
		}
	})
	c.cmds = ulp.NewPort(ep.TL(), func(id uint64, _ []byte, err error) {
		if err != nil {
			c.fail(id, err)
		}
	})
	ep.TL().OnDead(c.failAll)
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
	m := ulp.Msg{Pull: true, Fixed: true, Op: opRead, Addr: id<<32 | uint64(uint32(n)), Size: n}
	c.reads.Post(&c.readFree, m, done)
	return nil
}

// Write issues an n-byte write; the command is pushed, the controller
// pulls the data, and done fires on the completion push. A command push
// refused by transaction-layer backpressure waits for the connection's Xon
// edge behind the client's other waiting work; once the connection is
// dead, done fires once with its error.
func (c *Client) Write(lba uint64, n int, done func(error)) error {
	id := c.nextWriteID
	c.nextWriteID++
	var w *clientWrite
	if k := len(c.freeWrites); k > 0 {
		w, c.freeWrites = c.freeWrites[k-1], c.freeWrites[:k-1]
	} else {
		w = &clientWrite{}
	}
	binary.BigEndian.PutUint32(w.cmd[:], uint32(n))
	binary.BigEndian.PutUint32(w.cmd[4:], uint32(lba))
	w.done = done
	c.writes[id] = w
	c.cmds.Post(&c.cmdFree, ulp.Msg{Op: opWriteCmd, Addr: id, Data: w.cmd[:], Size: len(w.cmd)}, id)
	return nil
}

// fail completes write id with err, if it is still outstanding. Its state
// is not recycled: the command push may still be on the wire.
func (c *Client) fail(id uint64, err error) {
	if w, ok := c.writes[id]; ok {
		delete(c.writes, id)
		if w.done != nil {
			w.done(err)
		}
	}
}

// failAll is the connection's death upcall: every outstanding write fails,
// in ID order, including those whose command the controller already took.
func (c *Client) failAll(err error) {
	ids := make([]uint64, 0, len(c.writes))
	for id := range c.writes {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		c.fail(id, err)
	}
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
	if len(p.Data) > 0 && p.Data[0] != 0 {
		err = ErrDevice
	}
	done := w.done
	w.done = nil
	c.freeWrites = append(c.freeWrites, w)
	if done != nil {
		done(err)
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
