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
	"falcon/internal/swtransport"
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

// hostLink is the 200 Gbps, 1 µs link most testbeds are built from.
var hostLink = netsim.LinkConfig{GbpsRate: 200, PropDelay: time.Microsecond}

// falconNodes builds a cluster on the row's simulator with a Falcon node
// of config cfg on each host, in host order.
func falconNodes(r *row, hosts []*netsim.Host, cfg core.NodeConfig) (*core.Cluster, []*core.Node) {
	cl := core.NewCluster(r.s)
	nodes := make([]*core.Node, len(hosts))
	for i, h := range hosts {
		nodes[i] = cl.AddNode(h, cfg)
	}
	return cl, nodes
}

// qpPair connects a to b and puts an RDMA QP on each end; the target's QP
// exposes 1 TiB of registered memory. qa.Endpoint() is the initiator's
// Falcon endpoint.
func qpPair(cl *core.Cluster, a, b *core.Node, cfg core.ConnConfig) (qa, qb *rdma.QP) {
	epA, epB := cl.Connect(a, b, cfg)
	qa = rdma.NewQP(epA, rdma.Config{})
	qb = rdma.NewQP(epB, rdma.Config{})
	qb.RegisterMemoryLen(1 << 40)
	return qa, qb
}

// swNodes attaches a Pony Express software transport to each host, in
// host order.
func swNodes(r *row, hosts []*netsim.Host) []*swtransport.Node {
	nodes := make([]*swtransport.Node, len(hosts))
	for i, h := range hosts {
		nodes[i] = swtransport.NewNode(r.s, h, swtransport.PonyExpress())
	}
	return nodes
}

// falconP2P is the two-host Falcon testbed: one connection over a single
// switch, with the forward port (switch→server, where forward-direction
// impairments are injected) and the reverse port (switch→client).
type falconP2P struct {
	*row
	qa, qb  *rdma.QP
	forward *netsim.Port
	reverse *netsim.Port
	topo    *netsim.Topology
}

func newFalconP2P(r *row, connCfg core.ConnConfig) *falconP2P {
	topo, fwd := netsim.PointToPoint(r.s, hostLink)
	rev := topo.ToRs[0].RouteTo(topo.Hosts[0].ID)[0]
	cl, n := falconNodes(r, topo.Hosts, core.DefaultNodeConfig())
	qa, qb := qpPair(cl, n[0], n[1], connCfg)
	return &falconP2P{row: r, qa: qa, qb: qb, forward: fwd, reverse: rev, topo: topo}
}

// writeLoop keeps window Writes of opBytes outstanding on qa. Each Write
// that completes without error adds its latency to lat and its bytes to
// delivered; either may be nil.
func writeLoop(s *sim.Simulator, qa *rdma.QP, window, opBytes int, lat *stats.Series, delivered *uint64) {
	workload.NewClosedLoop(s, window, 1<<30, func(opDone func()) bool {
		start := s.Now()
		err := qa.Write(0, 0, nil, opBytes, func(c rdma.Completion) {
			if c.Err == nil {
				if lat != nil {
					lat.AddDuration(s.Now().Sub(start))
				}
				if delivered != nil {
					*delivered += uint64(opBytes)
				}
			}
			opDone()
		})
		return err == nil
	}, nil).Start()
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

// goodput drives closed-loop ops for runFor and returns delivered goodput
// in Gbps.
func (p *falconP2P) goodput(kind opKind, opBytes, window int, runFor time.Duration) float64 {
	var delivered uint64
	if kind == opSend {
		// Pre-post a window's worth of receives.
		for i := 0; i < 2*window; i++ {
			p.qb.PostRecv(nil, opBytes, nil)
		}
	}
	workload.NewClosedLoop(p.s, window, 1<<30, func(opDone func()) bool {
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
	}, nil).Start()
	p.s.RunUntil(sim.Time(runFor))
	return stats.Gbps(delivered, runFor)
}

// roceP2P is the equivalent RoCE testbed.
type roceP2P struct {
	*row
	qp      *roce.QP
	forward *netsim.Port
	reverse *netsim.Port
}

// newRoceP2P builds the RoCE testbed with a QP in the given mode.
func newRoceP2P(r *row, mode roce.Mode) *roceP2P {
	topo, fwd := netsim.PointToPoint(r.s, hostLink)
	rev := topo.ToRs[0].RouteTo(topo.Hosts[0].ID)[0]
	a := roce.NewNode(r.s, topo.Hosts[0], nil)
	b := roce.NewNode(r.s, topo.Hosts[1], nil)
	cfg := roce.DefaultConfig()
	cfg.Mode = mode
	cfg.LinkGbps = hostLink.GbpsRate
	qp, _ := roce.Connect(a, b, 1, cfg)
	return &roceP2P{row: r, qp: qp, forward: fwd, reverse: rev}
}

func (p *roceP2P) goodput(kind opKind, opBytes, window int, runFor time.Duration) float64 {
	var delivered uint64
	workload.NewClosedLoop(p.s, window, 1<<30, func(opDone func()) bool {
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
	}, nil).Start()
	p.s.RunUntil(sim.Time(runFor))
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

// opRateLink is the short link of the op-rate testbeds (Figs 1 and 20b).
var opRateLink = netsim.LinkConfig{GbpsRate: 200, PropDelay: 500 * time.Nanosecond}

// unorderedConn returns the multipath config with unordered delivery, as
// op-rate benchmarks use.
func unorderedConn() core.ConnConfig {
	cfg := multipathConn()
	cfg.TL.Ordered = false
	return cfg
}
