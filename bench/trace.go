package main

import (
	"bufio"
	"fmt"
	"os"
	"time"

	"falcon/internal/core"
	"falcon/internal/falcon/fae"
	"falcon/internal/falcon/pdl"
	"falcon/internal/falcon/tl"
	"falcon/internal/falcon/wire"
	"falcon/internal/netsim"
	"falcon/internal/sim"
)

// The traced pass measures the layers from outside, through hooks the
// packages already export. One simulator event in sampleEvery is sampled;
// inside a sampled event every seam records a span, so the parent chain of a
// sampled span is always complete. Calls are counted on every event.
const (
	sampleEvery = 64
	maxSpans    = 1 << 18 // spans kept for -trace-out; totals keep counting past it
)

type spanKind uint8

const (
	spanEvent        spanKind = iota // one delivered simulator event (observer to observer)
	spanHandleFrame                  // netsim.Host handler -> core.Node.HandleFrame (NIC ingress admit)
	spanTarget                       // tl target handler -> rdma HandlePush/HandlePull
	spanIssue                        // workload.ClosedLoop issue callback
	spanPost                         // QP.Write / QP.Read, inclusive of TL admit and PDL first transmit
	spanComplete                     // rdma completion callback
	markPDLSend                      // pdl.Probe.OnSend (instant)
	markPDLReceive                   // pdl.Probe.OnReceive (instant)
	markTLServed                     // tl.Probe.OnRequestServed (instant)
	markTLCompletion                 // tl.Probe.OnCompletion (instant)
	markFAE                          // fae observer (instant)
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"sim.event", "nic.handle_frame", "rdma.target", "workload.issue", "rdma.post", "rdma.complete",
	"pdl.send", "pdl.receive", "tl.served", "tl.completion", "fae.event",
}

// span is one recorded interval on the host clock (ns since tracer start).
type span struct {
	start  int64
	dur    int64
	op     uint64 // harness op id, 0 when the seam cannot know it
	parent int32  // index of the enclosing span, -1 for a root
	kind   spanKind
}

// frame is an open span on the stack.
type frame struct {
	start    int64
	childNs  int64
	children int64
	idx      int32 // index in spans, -1 when the buffer is full
	kind     spanKind
}

type tracer struct {
	base   time.Time
	sim    *sim.Simulator
	active bool // inside the measured window
	on     bool // the current event is sampled

	stack   []frame
	spans   []span
	dropped uint64

	calls    [numSpanKinds]uint64 // every call, sampled or not
	sampled  [numSpanKinds]uint64
	totalNs  [numSpanKinds]int64 // Σ duration of sampled spans
	selfNs   [numSpanKinds]int64 // Σ duration minus enclosed child spans
	children [numSpanKinds]int64 // Σ spans directly enclosed

	// What recording costs, measured once by calibrate: an empty span reads
	// emptyNs long, and costs its parent pairNs in all.
	emptyNs, pairNs float64

	eventNs    []uint32 // duration of every sampled event
	pendingMax int

	// Bare events are sampled events inside which no seam fired: port
	// drains, switch forwarding, NIC egress onto the uplink, expired timers.
	touched      bool
	bare, bareNs int64
}

func newTracer() *tracer {
	t := &tracer{
		base:    time.Now(),
		stack:   make([]frame, 0, 16),
		spans:   make([]span, 0, maxSpans),
		eventNs: make([]uint32, 0, 1<<20),
	}
	t.calibrate()
	return t
}

// calibrate records empty spans inside one sampled event to learn what a
// span costs, then forgets them.
func (t *tracer) calibrate() {
	const n = 1 << 14
	t.active, t.on = true, true
	t.push(spanEvent, 0)
	t0 := t.now()
	for i := 0; i < n; i++ {
		t.end(t.begin(spanIssue, 0))
	}
	pairNs := float64(t.now()-t0) / n
	emptyNs := float64(t.totalNs[spanIssue]) / n
	*t = tracer{base: t.base, stack: t.stack[:0], spans: t.spans[:0], eventNs: t.eventNs[:0], emptyNs: emptyNs, pairNs: pairNs}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) start() {
	if t != nil {
		t.active = true
	}
}

func (t *tracer) stop() {
	if t == nil {
		return
	}
	if t.on {
		t.pop(t.now())
		t.on = false
	}
	t.active = false
}

// OnEvent implements sim.Observer. The span of a sampled event runs from its
// observer call to the next one: the event's callback plus the scheduler's
// pop of its successor.
func (t *tracer) OnEvent(sim.Time, uint64) {
	if !t.active {
		return
	}
	if t.on {
		t.pop(t.now())
		t.on = false
	}
	n := t.calls[spanEvent]
	t.calls[spanEvent] = n + 1
	if n%sampleEvery == 0 {
		t.on, t.touched = true, false
		t.push(spanEvent, 0)
		if p := t.sim.Pending(); p > t.pendingMax {
			t.pendingMax = p
		}
	}
}

func (t *tracer) push(kind spanKind, op uint64) {
	idx := int32(-1)
	start := t.now()
	if len(t.spans) < maxSpans {
		parent := int32(-1)
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].idx
		}
		idx = int32(len(t.spans))
		t.spans = append(t.spans, span{start: start, op: op, parent: parent, kind: kind})
	} else {
		t.dropped++
	}
	t.stack = append(t.stack, frame{start: start, idx: idx, kind: kind})
}

func (t *tracer) pop(now int64) {
	n := len(t.stack) - 1
	f := t.stack[n]
	t.stack = t.stack[:n]
	dur := now - f.start
	t.sampled[f.kind]++
	t.totalNs[f.kind] += dur
	t.selfNs[f.kind] += dur - f.childNs
	t.children[f.kind] += f.children
	if n > 0 {
		t.stack[n-1].childNs += dur
		t.stack[n-1].children++
	}
	if f.idx >= 0 {
		t.spans[f.idx].dur = dur
	}
	if f.kind == spanEvent {
		t.eventNs = append(t.eventNs, uint32(min(dur, 1<<32-1)))
		if !t.touched {
			t.bare++
			t.bareNs += dur
		}
	}
}

// begin opens a span when the current event is sampled and reports whether
// it did; end closes it. Both are no-ops on a nil tracer, which is what the
// untraced pass holds.
func (t *tracer) begin(kind spanKind, op uint64) bool {
	if t == nil || !t.active {
		return false
	}
	t.calls[kind]++
	if !t.on {
		return false
	}
	t.touched = true
	t.push(kind, op)
	return true
}

func (t *tracer) end(open bool) {
	if open {
		t.pop(t.now())
	}
}

// mark records an instant inside the current span.
func (t *tracer) mark(kind spanKind) {
	if t.begin(kind, 0) {
		t.pop(t.stack[len(t.stack)-1].start)
	}
}

// nsPerCall is the mean duration of kind's sampled spans, less what
// recording them cost; self also excludes the spans nested inside them.
func (t *tracer) nsPerCall(kind spanKind, self bool) float64 {
	if t.sampled[kind] == 0 {
		return 0
	}
	n := float64(t.sampled[kind])
	ns := float64(t.totalNs[kind]) - n*t.emptyNs
	if self {
		ns = float64(t.selfNs[kind]) - n*t.emptyNs - float64(t.children[kind])*(t.pairNs-t.emptyNs)
	} else {
		// Every span nested at any depth cost pairNs inside this one; only
		// the direct children are counted, which is all the seams nest.
		ns -= float64(t.children[kind]) * t.pairNs
	}
	return max(ns, 0) / n
}

// install wraps every seam of the world with the tracer.
func (t *tracer) install(w *world) {
	t.sim = w.sim
	w.sim.SetObserver(t)
	for _, n := range w.nodes {
		n.Host().SetHandler(&frameSeam{t: t, node: n})
		n.Engine().SetObserver(func(fae.Event, fae.Response) { t.mark(markFAE) })
	}
	for _, l := range w.links {
		l.epB.SetTarget(&targetSeam{t: t, inner: l.targetQP.Target()})
		for _, ep := range []*core.Endpoint{l.epA, l.epB} {
			ep.PDL().SetProbe(t)
			ep.TL().SetProbe(t)
		}
	}
}

// frameSeam sits between a fabric host and its Falcon node.
type frameSeam struct {
	t    *tracer
	node *core.Node
}

func (s *frameSeam) HandleFrame(f *netsim.Frame) {
	open := s.t.begin(spanHandleFrame, 0)
	s.node.HandleFrame(f)
	s.t.end(open)
}

// targetSeam sits between a TL connection and its rdma target handler.
type targetSeam struct {
	t     *tracer
	inner tl.TargetHandler
}

func (s *targetSeam) HandlePush(rsn uint64, p *wire.Packet) tl.TargetVerdict {
	open := s.t.begin(spanTarget, 0)
	v := s.inner.HandlePush(rsn, p)
	s.t.end(open)
	return v
}

func (s *targetSeam) HandlePull(rsn uint64, p *wire.Packet) ([]byte, uint32, tl.TargetVerdict) {
	open := s.t.begin(spanTarget, 0)
	data, n, v := s.inner.HandlePull(rsn, p)
	s.t.end(open)
	return data, n, v
}

// pdl.Probe and tl.Probe: instants only — the probes fire after the work.
func (t *tracer) OnSend(*pdl.Conn, *wire.Packet, bool) { t.mark(markPDLSend) }
func (t *tracer) OnReceive(*pdl.Conn, *wire.Packet)    { t.mark(markPDLReceive) }
func (t *tracer) OnRequestServed(*tl.Conn, uint64)     { t.mark(markTLServed) }
func (t *tracer) OnCompletion(*tl.Conn, uint64, error) { t.mark(markTLCompletion) }

// writeChrome writes the kept spans as Chrome trace-event JSON ("X" complete
// events, "i" instants; ts and dur in microseconds).
func (t *tracer) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	for i, s := range t.spans {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		ph, dur := "X", fmt.Sprintf(`,"dur":%.3f`, float64(s.dur)/1e3)
		if s.kind >= markPDLSend {
			ph, dur = "i", `,"s":"t"`
		}
		fmt.Fprintf(w, "\n"+`{"name":%q,"ph":%q,"pid":1,"tid":1,"ts":%.3f%s,"args":{"id":%d,"parent":%d,"op":%d}}`,
			spanNames[s.kind], ph, float64(s.start)/1e3, dur, i, s.parent, s.op)
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
