package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"

	"falcon/internal/chaos"
	"falcon/internal/core"
	"falcon/internal/rdma"
	"falcon/internal/sim"
	"falcon/internal/workload"
)

// numSlices is how many equal simulated-time pieces the measured window is cut
// into. Host-time rates are the median over the slices, so a scheduler
// hiccup moves one slice and not the result; the heap is sampled at every
// boundary, which is fine enough to catch the peak of the GC sawtooth.
const numSlices = 40

// readBit marks a latency sample as a Read (latencies stay below 2^31 ns).
const readBit = 1 << 31

// harness drives one world: it owns the closed loops, the pooled per-op
// records and the counters the metrics are computed from. It allocates
// nothing per op: callbacks are bound once, op records are recycled.
type harness struct {
	sp  *spec
	w   *world
	rng *rand.Rand
	tr  *tracer // nil on the untraced pass

	stopped   bool // window over: loops park instead of posting
	recording bool // inside the measured window

	attempted, completed, failed uint64
	postedBytes, completedBytes  uint64
	refusals                     uint64 // issue callbacks that reported backpressure
	nextOp                       uint64

	winOps, winBytes uint64
	samples          []uint32 // op latency in ns, readBit set for Reads
}

// conn is the initiator side of one connection.
type conn struct {
	h      *harness
	qp     *rdma.QP
	loop   *workload.ClosedLoop
	free   []*opRec
	opDone func()
	reads  bool // next alternate op is a Read
}

// opRec is the state of one outstanding op; doneFn is bound once.
type opRec struct {
	c      *conn
	id     uint64
	post   sim.Time
	size   int
	read   bool
	doneFn func(rdma.Completion)
}

// newHarness builds the workload from the seed and schedules every closed
// loop to start at a seeded offset within the first microseconds.
func newHarness(sp *spec, seed int64, traced bool, samples []uint32) *harness {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed_fa1c))
	h := &harness{sp: sp, rng: rng, samples: samples[:0]}
	h.w = sp.build(seed, rng)
	if traced {
		h.tr = newTracer()
		h.tr.install(h.w)
	}
	for _, l := range h.w.links {
		c := &conn{h: h, qp: l.qp, reads: true}
		for i := 0; i < sp.window; i++ {
			r := &opRec{c: c}
			r.doneFn = r.done
			c.free = append(c.free, r)
		}
		c.loop = workload.NewClosedLoop(l.epA.Sim(), sp.window, math.MaxInt, c.issue, nil)
		l.epA.Sim().At(sim.Time(rng.Int63n(int64(10*time.Microsecond))), c.loop.Start)
	}
	return h
}

// issue is the closed loop's issue callback: post one op.
func (c *conn) issue(opDone func()) bool {
	h := c.h
	if h.stopped {
		// Report success without posting: the loop counts a phantom op in
		// flight, so once the real ones complete it stops calling.
		return true
	}
	h.nextOp++
	span := h.tr.begin(spanIssue, h.nextOp)
	r := c.free[len(c.free)-1]
	c.free = c.free[:len(c.free)-1]
	c.opDone = opDone
	r.id = h.nextOp
	r.size = h.w.size(h.rng)
	switch h.sp.kind {
	case kindWrite:
		r.read = false
	case kindRead:
		r.read = true
	default:
		r.read = c.reads
		c.reads = !c.reads
	}
	r.post = h.w.sim.Now()
	h.attempted++
	h.postedBytes += uint64(r.size)

	post := h.tr.begin(spanPost, r.id)
	var err error
	if r.read {
		err = c.qp.Read(r.id, 0, r.size, r.doneFn)
	} else {
		err = c.qp.Write(r.id, 0, nil, r.size, r.doneFn)
	}
	h.tr.end(post)
	h.tr.end(span)
	if err != nil {
		h.attempted--
		h.postedBytes -= uint64(r.size)
		h.refusals++
		c.free = append(c.free, r)
		return false
	}
	return true
}

// done is the op's completion callback.
func (r *opRec) done(comp rdma.Completion) {
	c := r.c
	h := c.h
	span := h.tr.begin(spanComplete, r.id)
	if comp.Err != nil {
		h.failed++
	} else {
		h.completed++
		h.completedBytes += uint64(r.size)
		if h.recording {
			lat := uint32(h.w.sim.Now() - r.post)
			if r.read {
				lat |= readBit
			}
			h.samples = append(h.samples, lat)
			h.winOps++
			h.winBytes += uint64(r.size)
		}
	}
	c.free = append(c.free, r)
	c.opDone()
	h.tr.end(span)
}

// window is what one measured pass produced.
type window struct {
	simDur     time.Duration
	wall       time.Duration // Σ slice walls
	events     uint64
	ops, bytes uint64
	mallocs    uint64
	sliceNsEv  []float64 // per slice: host ns per delivered event
	heapMax    uint64    // max HeapAlloc at slice boundaries
	gcCycles   uint32
	gcCPU      time.Duration
	pendingMax int
}

// measure runs the fixed simulated duration in equal slices, timing each.
func (h *harness) measure(dur time.Duration) window {
	s := h.w.sim
	win := window{simDur: dur, sliceNsEv: make([]float64, 0, numSlices)}
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	mallocs0, gc0, gcCPU0 := ms.Mallocs, ms.NumGC, gcCPUTime()
	start, events0 := s.Now(), s.Processed()
	h.recording = true
	h.tr.start()
	for i := 1; i <= numSlices; i++ {
		until := start.Add(dur * time.Duration(i) / numSlices)
		ev := s.Processed()
		t0 := time.Now()
		s.RunUntil(until)
		wall := time.Since(t0)
		win.wall += wall
		if d := s.Processed() - ev; d > 0 {
			win.sliceNsEv = append(win.sliceNsEv, float64(wall.Nanoseconds())/float64(d))
		}
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > win.heapMax {
			win.heapMax = ms.HeapAlloc
		}
		if p := s.Pending(); p > win.pendingMax {
			win.pendingMax = p
		}
	}
	h.tr.stop()
	h.recording = false
	win.events = s.Processed() - events0
	win.ops, win.bytes = h.winOps, h.winBytes
	win.mallocs = ms.Mallocs - mallocs0
	win.gcCycles = ms.NumGC - gc0
	win.gcCPU = gcCPUTime() - gcCPU0
	return win
}

// drain stops the loops and runs the simulator to quiescence.
func (h *harness) drain() {
	h.stopped = true
	h.w.sim.Run()
}

// check verifies the run after drain. Every violation is returned.
func (h *harness) check(win window) []string {
	var bad []string
	fail := func(format string, a ...any) { bad = append(bad, fmt.Sprintf(format, a...)) }
	if n := h.w.sim.Pending(); n != 0 {
		fail("%d events still pending after drain", n)
	}
	if h.attempted != h.completed+h.failed {
		fail("ops attempted %d != completed %d + failed %d after drain", h.attempted, h.completed, h.failed)
	}
	if h.failed != 0 {
		fail("%d ops completed in error", h.failed)
	}
	// Every payload byte of a completed op reached host memory exactly
	// once: a Write's at the target, a Read's at the initiator.
	var hostBytes uint64
	for _, n := range h.w.nodes {
		hostBytes += n.NIC().Stats.HostBytes
	}
	if hostBytes != h.completedBytes || h.completedBytes != h.postedBytes {
		fail("payload bytes: posted %d, completed %d, delivered to host memory %d", h.postedBytes, h.completedBytes, hostBytes)
	}
	if l := chaos.Audit(h.w.net); !l.Balanced() {
		fail("frame ledger unbalanced: %s", l)
	}
	if win.ops < 1000 {
		fail("only %d latency samples in the window, need 1000", win.ops)
	}
	return bad
}

// latencies returns sorted op latencies (ns) of the window: all, Writes, Reads.
func (h *harness) latencies() (all, writes, reads []uint32) {
	all = make([]uint32, len(h.samples))
	for i, v := range h.samples {
		all[i] = v &^ readBit
		if v&readBit != 0 {
			reads = append(reads, all[i])
		} else {
			writes = append(writes, all[i])
		}
	}
	slices.Sort(all)
	slices.Sort(writes)
	slices.Sort(reads)
	return all, writes, reads
}

// heapAlloc returns the live heap after a forced collection.
func heapAlloc() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// gcCPUTime is the CPU time the garbage collector has used so far.
func gcCPUTime() time.Duration {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	return time.Duration(s[0].Value.Float64() * float64(time.Second))
}

// population describes the world to the layer drivers.
func (h *harness) population() population {
	w := h.w
	perNode, inits, targets := map[*core.Node]int{}, map[*core.Node]int{}, map[*core.Node]int{}
	p := population{
		shape: w.shape, conns: len(w.links), pathLoss: w.pathLoss,
		nicCfg: w.nodeCfg.NIC, faeCfg: w.nodeCfg.FAE,
		pull: h.sp.kind == kindRead, mixed: h.sp.kind == kindAlternate,
	}
	for _, l := range w.links {
		a, b := l.epA.Node(), l.epB.Node()
		p.pairs = append(p.pairs, [2]int{int(a.Host().ID), int(b.Host().ID)})
		perNode[a]++
		perNode[b]++
		inits[a]++
		targets[b]++
		p.connsPerNode = max(p.connsPerNode, perNode[a], perNode[b])
		p.initPerNode = max(p.initPerNode, inits[a])
		p.targetPerNode = max(p.targetPerNode, targets[b])
	}
	// The typical op is the median of a few hundred draws from a private
	// stream, so asking does not disturb the workload's own.
	rng := rand.New(rand.NewSource(1))
	sizes := make([]int, 255)
	for i := range sizes {
		sizes[i] = w.size(rng)
	}
	slices.Sort(sizes)
	p.opBytes = sizes[len(sizes)/2]
	const mtu = 4096
	p.segment = min(p.opBytes, mtu)
	p.inflight = h.sp.window * ((p.opBytes + mtu - 1) / mtu)
	return p
}
