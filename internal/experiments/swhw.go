package experiments

import (
	"time"

	"falcon/internal/core"
	"falcon/internal/netsim"
	"falcon/internal/rdma"
	"falcon/internal/sim"
	"falcon/internal/stats"
	"falcon/internal/swtransport"
	"falcon/internal/workload"
)

// opLat records per-op completion latency through a free list of pooled
// records, each carrying its start time and a pre-bound completion
// callback: issuing an op costs no allocation in steady state, where a
// capture closure per op (the natural way to time completions) was one of
// the largest allocation sources in the op-rate figures.
type opLat struct {
	s    *sim.Simulator
	lat  *stats.Series
	done *uint64
	free sim.FreeList[opLatRec]
}

type opLatRec struct {
	p      *opLat
	start  sim.Time
	onRDMA func(rdma.Completion)
	onSW   func()
}

// get stamps a pooled record with the current time; pass its onRDMA or
// onSW field as the op's completion callback.
func (p *opLat) get() *opLatRec {
	r := p.free.Get()
	if r.p == nil {
		r.p = p
		r.onRDMA = r.rdmaDone
		r.onSW = r.swDone
	}
	r.start = p.s.Now()
	return r
}

func (r *opLatRec) release() { r.p.free.Put(r) }

func (r *opLatRec) rdmaDone(c rdma.Completion) {
	if c.Err == nil {
		p := r.p
		*p.done++
		p.lat.AddDuration(p.s.Now().Sub(r.start))
	}
	r.release()
}

func (r *opLatRec) swDone() {
	p := r.p
	*p.done++
	p.lat.AddDuration(p.s.Now().Sub(r.start))
	r.release()
}

// Fig1 reproduces "comparing the limits of SW-based stacks": op rate
// versus p99 latency for the Falcon hardware transport and a
// Pony-Express-class software transport, sweeping offered op rate. The
// software stack's rate caps at its CPU budget and its tail is an order of
// magnitude higher; Falcon reaches ~5x the op rate with a flat tail.
func Fig1(o Options, runFor time.Duration) *Table {
	t := &Table{
		Title:   "Figure 1: offered op rate vs p99 latency (8B ops)",
		Columns: []string{"offered Mops", "Falcon p99", "Falcon achieved", "SW p99", "SW achieved"},
	}
	const opBytes = 8
	for _, mops := range []float64{1, 5, 10, 20, 40, 80, 120} {
		// Falcon: spread across 16 unordered QPs (hardware scales with
		// QPs; Figure 20b).
		cell := "mops" + f1(mops)
		fp99, fach := func() (time.Duration, float64) {
			r := o.row(cell, 1)
			s := r.s
			topo, _ := netsim.PointToPoint(s, opRateLink)
			cl, n := falconNodes(r, topo.Hosts, core.DefaultNodeConfig())
			var lat stats.Series
			var done uint64
			tr := &opLat{s: s, lat: &lat, done: &done}
			const qps = 16
			for q := 0; q < qps; q++ {
				qa, _ := qpPair(cl, n[0], n[1], unorderedConn())
				workload.NewPoisson(s, s.Rand(), mops*1e6/qps, 1<<30, func() {
					qa.Write(0, 0, nil, opBytes, tr.get().onRDMA)
				}).Start()
			}
			s.RunUntil(sim.Time(runFor))
			return lat.DurationPercentile(99), float64(done) / runFor.Seconds() / 1e6
		}()
		sp99, sach := func() (time.Duration, float64) {
			r := o.row(cell+"/sw", 1)
			s := r.s
			topo, _ := netsim.PointToPoint(s, opRateLink)
			sw := swNodes(r, topo.Hosts)
			var lat stats.Series
			var done uint64
			tr := &opLat{s: s, lat: &lat, done: &done}
			const conns = 16
			for c := 0; c < conns; c++ {
				conn := swtransport.Connect(sw[0], sw[1], uint32(c+1))
				workload.NewPoisson(s, s.Rand(), mops*1e6/conns, 1<<30, func() {
					conn.Send(opBytes, tr.get().onSW)
				}).Start()
			}
			s.RunUntil(sim.Time(runFor))
			return lat.DurationPercentile(99), float64(done) / runFor.Seconds() / 1e6
		}()
		t.Rows = append(t.Rows, []string{f1(mops), dur(fp99), f1(fach), dur(sp99), f1(sach)})
	}
	return t
}
