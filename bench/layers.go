package main

import (
	"maps"
	"slices"

	"falcon/internal/core"
	"falcon/internal/netsim"
)

// counter names one exact per-layer count of a world, summed over its ports,
// hosts, nodes and endpoints from the packages' public Stats structs.
type counter int

const (
	cPortTx counter = iota
	cQueueDrops
	cRandomDrops
	cECNMarks
	cHostSent
	cNICPackets
	cCacheHits
	cCacheLookups
	cConnWaitNs
	cDataSent
	cRetx
	cRetxRACK
	cRetxTLP
	cRetxRTO
	cAcksSent
	cDuplicates
	cDelivered
	cNacks
	cRxWindowDrops
	cTxns
	cBackpressured
	cRNRRetries
	cCompletedError
	cFAEEvents
	cFAERepaths
	numCounters
)

// counters is one snapshot; two of them bracket the measured window.
type counters [numCounters]uint64

func (c counters) sub(o counters) counters {
	for i := range c {
		c[i] -= o[i]
	}
	return c
}

func snapshot(w *world) counters {
	var c counters
	for _, p := range w.net.Ports() {
		c[cPortTx] += p.Stats.TxFrames
		c[cQueueDrops] += p.Stats.QueueDrops
		c[cRandomDrops] += p.Stats.RandomDrops
		c[cECNMarks] += p.Stats.ECNMarks
	}
	for _, h := range w.net.Hosts() {
		c[cHostSent] += h.SentFrames
	}
	for _, n := range w.nodes {
		st := n.NIC().Stats
		c[cNICPackets] += st.PacketsProcessed
		c[cCacheHits] += st.CacheHits
		c[cCacheLookups] += st.CacheHits + st.L2Hits + st.CacheMisses
		c[cConnWaitNs] += uint64(st.ConnWait)
		c[cFAEEvents] += n.Engine().EventsProcessed
		c[cFAERepaths] += n.Engine().Repaths
	}
	for _, l := range w.links {
		for _, ep := range []*core.Endpoint{l.epA, l.epB} {
			ps, ts := &ep.PDL().Stats, &ep.TL().Stats
			c[cDataSent] += ps.DataSent
			c[cRetx] += ps.DataRetransmits
			c[cRetxRACK] += ps.RetxRACK
			c[cRetxTLP] += ps.RetxTLP
			c[cRetxRTO] += ps.RetxRTO
			c[cAcksSent] += ps.AcksSent
			c[cDuplicates] += ps.Duplicates
			c[cDelivered] += ps.DeliveredToTL
			c[cNacks] += ps.NacksSent
			c[cRxWindowDrops] += ps.RxWindowDrops
			c[cTxns] += ts.Pushes + ts.Pulls
			c[cBackpressured] += ts.Backpressured
			c[cRNRRetries] += ts.RNRRetries
			c[cCompletedError] += ts.CompletedError
		}
	}
	return c
}

// maxQueueKB is the deepest output queue any port has seen, in KB.
func maxQueueKB(n *netsim.Network) float64 {
	deepest := 0
	for _, p := range n.Ports() {
		deepest = max(deepest, p.Stats.MaxQueueBytes)
	}
	return float64(deepest) / 1e3
}

// uplinkSpreadPct is (max - min) / mean of the frames carried by the
// ToR->spine ports that carried any: how evenly routing used the spines.
func uplinkSpreadPct(ports []*netsim.Port, before []uint64) float64 {
	var lo, hi, sum, n uint64
	for i, p := range ports {
		d := p.Stats.TxFrames - before[i]
		if d == 0 {
			continue
		}
		if n == 0 || d < lo {
			lo = d
		}
		hi = max(hi, d)
		sum += d
		n++
	}
	if sum == 0 {
		return 0
	}
	return float64(hi-lo) / (float64(sum) / float64(n)) * 100
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// layerValues turns the traced window into the per-layer metrics. ref is the
// untraced pass of the same workload and seed, d the exact counts of the
// traced window, writes and reads its sorted op latencies; the unit costs
// come from the layer drivers, run here.
func layerValues(h *harness, ref, win window, d counters, spread float64, writes, reads []uint32) values {
	t := h.tr
	pkts := d[cDataSent] + d[cRetx]
	pendingMax := max(win.pendingMax, t.pendingMax)

	pop := h.population()
	schedNs := schedCost(pendingMax, win.events, win.simDur)
	hopNs := driveNetsim(pop)
	admitNs := driveNIC(pop)
	pdlNs := drivePDL(pop)
	tlNs := driveTL(pop, ratio(d[cBackpressured], d[cTxns]))
	faeNs := driveFAE(pop)
	allocRead, allocWrite := driveRDMAAllocs(pop)

	wall := float64(ref.wall.Nanoseconds())
	share := func(count uint64, unitNs float64) float64 { return float64(count) * unitNs / wall * 100 }
	shares := values{
		"sim.share_est":    share(win.events, schedNs),
		"netsim.share_est": share(d[cPortTx], hopNs),
		"nic.share_est":    share(d[cNICPackets], admitNs),
		"pdl.share_est":    share(pkts, pdlNs),
		"tl.share_est":     share(d[cTxns], tlNs),
		"fae.share_est":    share(d[cFAEEvents], faeNs),
		// Measured in place, not estimated: the harness's closed loop.
		"workload.share_est": share(t.calls[spanIssue], t.nsPerCall(spanIssue, true)+t.nsPerCall(spanComplete, true)),
	}
	coverage := 0.0
	for _, s := range shares {
		coverage += s
	}

	eventNs := slices.Clone(t.eventNs)
	slices.Sort(eventNs)

	v := values{
		"sim.events":             float64(win.events),
		"sim.pending_max":        float64(pendingMax),
		"sim.event_ns_p50":       percentile(eventNs, 50),
		"sim.event_ns_p99":       percentile(eventNs, 99),
		"sim.sched_ns_per_event": schedNs,
		"sim.bare_event_ns":      float64(t.bareNs) / float64(max(t.bare, 1)),
		"sim.bare_event_pct":     float64(t.bareNs) / float64(max(t.totalNs[spanEvent], 1)) * 100,

		"netsim.frame_hops":         float64(d[cPortTx]),
		"netsim.hops_per_pkt":       ratio(d[cPortTx], d[cHostSent]),
		"netsim.ns_per_hop":         hopNs,
		"routing.uplink_spread_pct": spread,
		"netsim.queue_drops":        float64(d[cQueueDrops]),
		"netsim.random_drops":       float64(d[cRandomDrops]),
		"netsim.ecn_marks":          float64(d[cECNMarks]),
		"netsim.max_queue_kb":       maxQueueKB(h.w.net),

		"nic.packets":                 float64(d[cNICPackets]),
		"nic.admit_ns_per_pkt":        admitNs,
		"nic.handle_frame_ns_per_pkt": t.nsPerCall(spanHandleFrame, false),
		"nic.cache_hit_ratio":         ratio(d[cCacheHits], d[cCacheLookups]),
		"nic.conn_wait_us_per_pkt":    ratio(d[cConnWaitNs], d[cNICPackets]) / 1e3,

		"pdl.data_pkts":       float64(d[cDataSent]),
		"pdl.acks_per_data":   ratio(d[cAcksSent], pkts),
		"pdl.ns_per_pkt":      pdlNs,
		"pdl.retx_ratio":      ratio(d[cRetx], d[cDataSent]),
		"pdl.retx_rack":       float64(d[cRetxRACK]),
		"pdl.retx_tlp":        float64(d[cRetxTLP]),
		"pdl.retx_rto":        float64(d[cRetxRTO]),
		"pdl.dup_ratio":       ratio(d[cDuplicates], d[cDelivered]),
		"pdl.nacks":           float64(d[cNacks]),
		"pdl.rx_window_drops": float64(d[cRxWindowDrops]),

		"tl.txns":            float64(d[cTxns]),
		"tl.ns_per_txn":      tlNs,
		"tl.backpressured":   float64(d[cBackpressured]),
		"tl.rnr_retries":     float64(d[cRNRRetries]),
		"tl.completed_error": float64(d[cCompletedError]),

		"fae.events":         float64(d[cFAEEvents]),
		"fae.events_per_pkt": ratio(d[cFAEEvents], pkts),
		"fae.ns_per_event":   faeNs,
		"fae.repaths":        float64(d[cFAERepaths]),

		"rdma.post_ns_per_op":     t.nsPerCall(spanPost, false),
		"rdma.target_ns_per_call": t.nsPerCall(spanTarget, false),
		"rdma.complete_ns_per_op": t.nsPerCall(spanComplete, true),
		"rdma.segments_per_op":    ratio(d[cTxns], t.calls[spanPost]),
		"rdma.allocs_per_read":    allocRead,
		"rdma.allocs_per_write":   allocWrite,
		"rdma.read_p50_us":        percentile(reads, 50) / 1e3,
		"rdma.read_p99_us":        percentile(reads, 99) / 1e3,
		"rdma.write_p50_us":       percentile(writes, 50) / 1e3,
		"rdma.write_p99_us":       percentile(writes, 99) / 1e3,

		"workload.issue_ns_per_op":      t.nsPerCall(spanIssue, true),
		"workload.backpressure_retries": float64(h.refusals),
		"workload.op_fail_ratio":        ratio(h.attempted-h.completed, h.attempted),
		"workload.sim_op_samples":       float64(win.ops),

		"runtime.gc_cpu_pct": win.gcCPU.Seconds() / win.wall.Seconds() * 100,
		"runtime.gc_cycles":  float64(win.gcCycles),

		"trace.overhead_pct":     (median(win.sliceNsEv)/median(ref.sliceNsEv) - 1) * 100,
		"trace.coverage_pct":     coverage,
		"trace.unattributed_pct": max(0, 100-coverage),
		"trace.spans":            float64(len(t.spans)),
	}
	maps.Copy(v, shares)
	return v
}
