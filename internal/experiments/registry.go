package experiments

import "time"

// Entry is one runnable experiment: a paper table or figure plus the
// ablations. cmd/falconbench selects entries by name regex; the runner in
// runner.go executes them serially or across a worker pool.
type Entry struct {
	Name string
	Desc string
	Run  func(Options) *Table
}

// registry lists every experiment in presentation order. Each entry builds
// its simulators from scratch on every call (fresh *sim.Simulator and RNG
// per run), which is what makes the set embarrassingly parallel: entries
// share no mutable state, so the worker pool may run any subset
// concurrently without changing a single table cell.
var registry = []Entry{
	{Name: "fig1", Desc: "HW vs SW op rate and tail latency", Run: func(o Options) *Table {
		return Fig1(o, o.window(4*time.Millisecond, 2*time.Millisecond))
	}},
	{Name: "fig3", Desc: "transport multipath vs app-level connections", Run: func(o Options) *Table {
		return Fig3(o, o.window(4*time.Millisecond, 2*time.Millisecond))
	}},
	{Name: "fig10", Desc: "goodput under losses per op type", Run: func(o Options) *Table {
		return Fig10(o, o.window(8*time.Millisecond, 3*time.Millisecond))
	}},
	{Name: "fig11a", Desc: "goodput under reordering", Run: func(o Options) *Table {
		return Fig11a(o, o.window(8*time.Millisecond, 3*time.Millisecond))
	}},
	{Name: "fig11b", Desc: "RACK-TLP vs OOO-distance", Run: func(o Options) *Table {
		return Fig11b(o, o.window(10*time.Millisecond, 4*time.Millisecond))
	}},
	{Name: "fig12", Desc: "RoCE modes under losses", Run: func(o Options) *Table {
		return Fig12(o, o.window(8*time.Millisecond, 3*time.Millisecond))
	}},
	{Name: "fig13", Desc: "incast congestion control", Run: func(o Options) *Table {
		return Fig13(o, o.window(8*time.Millisecond, 4*time.Millisecond))
	}},
	{Name: "fig14", Desc: "end-host congestion (PCIe downgrade)", Run: func(o Options) *Table {
		return Fig14(o, o.window(3*time.Millisecond, 2*time.Millisecond))
	}},
	{Name: "fig15", Desc: "multipath latency/goodput vs load (fig16 series included)", Run: func(o Options) *Table {
		return Fig15(o, o.window(4*time.Millisecond, 2*time.Millisecond))
	}},
	{Name: "fig17", Desc: "path scheduling policy", Run: func(o Options) *Table {
		return Fig17(o, o.window(4*time.Millisecond, 2*time.Millisecond))
	}},
	{Name: "figRouting", Desc: "fabric routing policy head-to-head (ECMP/spray/adaptive)", Run: func(o Options) *Table {
		return FigRouting(o, o.window(4*time.Millisecond, 2*time.Millisecond))
	}},
	{Name: "figGrayFailure", Desc: "routing policies under flapping links and correlated outages", Run: func(o Options) *Table {
		return FigGrayFailure(o, o.window(4*time.Millisecond, 2*time.Millisecond))
	}},
	{Name: "figStorm", Desc: "Falcon vs RoCE under identical seeded fault storms", Run: func(o Options) *Table {
		return FigStorm(o, o.window(4*time.Millisecond, 2*time.Millisecond))
	}},
	{Name: "figEndpointFault", Desc: "endpoint fault classes: pause/crash/blackhole/corrupt/RNR", Run: func(o Options) *Table {
		return FigEndpointFault(o, o.window(8*time.Millisecond, 4*time.Millisecond))
	}},
	{Name: "fig18", Desc: "ML training comm time (multipath)", Run: Fig18},
	{Name: "fig19", Desc: "message size scaling", Run: Fig19},
	{Name: "fig20a", Desc: "read-incast bandwidth scaling vs SW", Run: func(o Options) *Table {
		return Fig20a(o, o.window(4*time.Millisecond, 2*time.Millisecond))
	}},
	{Name: "fig20b", Desc: "op-rate scaling vs QP count", Run: func(o Options) *Table {
		return Fig20b(o, o.window(3*time.Millisecond, 2*time.Millisecond))
	}},
	{Name: "fig21", Desc: "connection-count RTT cliff", Run: Fig21},
	{Name: "figScale", Desc: "fabric scaling on a k=16-class Clos", Run: func(o Options) *Table {
		return FigScale(o, o.window(400*time.Microsecond, 150*time.Microsecond))
	}},
	{Name: "fig22a", Desc: "FAE event rate vs connections", Run: func(Options) *Table { return Fig22a() }},
	{Name: "fig22b", Desc: "impact of slow FAE", Run: func(o Options) *Table {
		return Fig22b(o, o.window(4*time.Millisecond, 2*time.Millisecond))
	}},
	{Name: "fig23", Desc: "FAE state-size sensitivity", Run: func(Options) *Table { return Fig23() }},
	{Name: "fig24", Desc: "isolation via backpressure", Run: func(o Options) *Table {
		return Fig24(o, o.window(4*time.Millisecond, 2*time.Millisecond))
	}},
	{Name: "fig25", Desc: "MPI AllReduce vs TCP", Run: Fig25},
	{Name: "fig26", Desc: "MPI AllToAll vs TCP", Run: Fig26},
	{Name: "fig27", Desc: "GROMACS-like scaling", Run: Fig27},
	{Name: "fig28", Desc: "WRF-like scaling", Run: Fig28},
	{Name: "fig29", Desc: "VM live migration vs Pony Express", Run: Fig29},
	{Name: "fig30", Desc: "MPI AllGather vs TCP", Run: Fig30},
	{Name: "fig31", Desc: "MPI MultiPingPong vs TCP", Run: Fig31},
	{Name: "table4", Desc: "Near Local Flash vs local SSD", Run: func(o Options) *Table {
		return Table4(o, o.window(20*time.Millisecond, 8*time.Millisecond))
	}},
	{Name: "ecn", Desc: "ablation: ECN as a supplementary CC signal", Run: func(o Options) *Table {
		return AblationECN(o, o.window(4*time.Millisecond, 2*time.Millisecond))
	}},
	{Name: "psp", Desc: "ablation: PSP inline-encryption overhead", Run: func(o Options) *Table {
		return AblationPSP(o, o.window(4*time.Millisecond, 2*time.Millisecond))
	}},
}

// Registry returns every experiment in presentation order.
func Registry() []Entry { return registry }
