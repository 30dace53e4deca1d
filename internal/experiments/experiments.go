// Package experiments implements the paper's evaluation (§6, Appendix B):
// one function per table or figure, each returning typed rows that the
// cmd/falconbench binary prints and the repository-root benchmarks wrap.
// Parameters are scaled down from the paper's testbed where noted (the
// simulator runs on one core, the testbed had 32 machines); DESIGN.md and
// EXPERIMENTS.md record each scaling decision.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"falcon/internal/core"
	"falcon/internal/netsim"
	"falcon/internal/rdma"
	"falcon/internal/roce"
	"falcon/internal/sim"
	"falcon/internal/stats"
	"falcon/internal/workload"
)

// Table is a printable result table.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// Fprint renders the table.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	for i, c := range t.Columns {
		fmt.Fprintf(&sb, "%-*s  ", widths[i], c)
	}
	fmt.Fprintln(w, strings.TrimRight(sb.String(), " "))
	for _, r := range t.Rows {
		sb.Reset()
		for i, c := range r {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			fmt.Fprintf(&sb, "%-*s  ", w, c)
		}
		fmt.Fprintln(w, strings.TrimRight(sb.String(), " "))
	}
	fmt.Fprintln(w)
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func dur(d time.Duration) string {
	return d.Round(10 * time.Nanosecond).String()
}

// --- Shared setups -------------------------------------------------------

// falconP2P builds a two-host Falcon testbed, returning the initiator QP,
// the forward port (switch→server, where forward-direction impairments are
// injected) and the reverse port (switch→client).
type falconP2P struct {
	sim      *sim.Simulator
	qa, qb   *rdma.QP
	epA, epB *core.Endpoint
	forward  *netsim.Port
	reverse  *netsim.Port
	topo     *netsim.Topology
}

func newFalconP2P(o Options, seed int64, gbps float64, connCfg core.ConnConfig) *falconP2P {
	s := o.newSim(seed)
	link := netsim.LinkConfig{GbpsRate: gbps, PropDelay: time.Microsecond}
	topo, fwd := netsim.PointToPoint(s, link)
	rev := topo.ToRs[0].RouteTo(topo.Hosts[0].ID)[0]
	cl := core.NewCluster(s)
	a := cl.AddNode(topo.Hosts[0], core.DefaultNodeConfig())
	b := cl.AddNode(topo.Hosts[1], core.DefaultNodeConfig())
	epA, epB := cl.Connect(a, b, connCfg)
	qa := rdma.NewQP(epA, rdma.Config{})
	qb := rdma.NewQP(epB, rdma.Config{})
	qa.RegisterMemoryLen(1 << 40)
	qb.RegisterMemoryLen(1 << 40)
	return &falconP2P{sim: s, qa: qa, qb: qb, epA: epA, epB: epB, forward: fwd, reverse: rev, topo: topo}
}

// opKind selects the IB Verbs op for goodput experiments.
type opKind int

const (
	opWrite opKind = iota
	opSend
	opRead
)

func (k opKind) String() string {
	switch k {
	case opWrite:
		return "Write"
	case opSend:
		return "Send"
	}
	return "Read"
}

// falconGoodput drives closed-loop ops for runFor and returns delivered
// goodput in Gbps.
func (p *falconP2P) goodput(kind opKind, opBytes, window int, runFor time.Duration) float64 {
	var delivered uint64
	if kind == opSend {
		// Pre-post a window's worth of receives.
		for i := 0; i < 2*window; i++ {
			p.qb.PostRecv(nil, opBytes, nil)
		}
	}
	issuer := workload.NewClosedLoop(p.sim, window, 1<<30, func(opDone func()) bool {
		if kind == opSend {
			// Replenish one receive per issued send so the queue
			// never drains (the app-level recv loop).
			p.qb.PostRecv(nil, opBytes, nil)
		}
		cb := func(c rdma.Completion) {
			if c.Err == nil {
				delivered += uint64(opBytes)
			}
			opDone()
		}
		var err error
		switch kind {
		case opWrite:
			err = p.qa.Write(0, 0, nil, opBytes, cb)
		case opSend:
			err = p.qa.Send(0, nil, opBytes, cb)
		case opRead:
			err = p.qa.Read(0, 0, opBytes, cb)
		}
		return err == nil
	}, nil)
	issuer.Start()
	p.sim.RunUntil(sim.Time(runFor))
	return stats.Gbps(delivered, runFor)
}

// roceP2P builds the equivalent RoCE testbed.
type roceP2P struct {
	sim     *sim.Simulator
	qp      *roce.QP
	resp    *roce.Responder
	forward *netsim.Port
	reverse *netsim.Port
}

func newRoceP2P(o Options, seed int64, gbps float64, cfg roce.Config) *roceP2P {
	s := o.newSim(seed)
	link := netsim.LinkConfig{GbpsRate: gbps, PropDelay: time.Microsecond}
	topo, fwd := netsim.PointToPoint(s, link)
	rev := topo.ToRs[0].RouteTo(topo.Hosts[0].ID)[0]
	a := roce.NewNode(s, topo.Hosts[0], nil)
	b := roce.NewNode(s, topo.Hosts[1], nil)
	cfg.LinkGbps = gbps
	qp, resp := roce.Connect(a, b, 1, cfg)
	return &roceP2P{sim: s, qp: qp, resp: resp, forward: fwd, reverse: rev}
}

func (p *roceP2P) goodput(kind opKind, opBytes, window int, runFor time.Duration) float64 {
	var delivered uint64
	issuer := workload.NewClosedLoop(p.sim, window, 1<<30, func(opDone func()) bool {
		cb := func() {
			delivered += uint64(opBytes)
			opDone()
		}
		switch kind {
		case opWrite:
			p.qp.Write(opBytes, cb)
		case opSend:
			p.qp.Send(opBytes, cb)
		case opRead:
			p.qp.Read(opBytes, cb)
		}
		return true
	}, nil)
	issuer.Start()
	p.sim.RunUntil(sim.Time(runFor))
	return stats.Gbps(delivered, runFor)
}

// singlePathConn returns a single-path Falcon connection
// config (the multipath-off baseline).
func singlePathConn() core.ConnConfig {
	cfg := core.DefaultConnConfig()
	cfg.PDL.NumFlows = 1
	return cfg
}

// multipathConn returns the default 4-flow connection config.
func multipathConn() core.ConnConfig { return core.DefaultConnConfig() }
