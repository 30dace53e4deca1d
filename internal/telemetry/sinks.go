package telemetry

import (
	"strconv"

	"falcon/internal/chaos"
	"falcon/internal/falcon/fae"
	"falcon/internal/falcon/pdl"
	"falcon/internal/falcon/tl"
	"falcon/internal/falcon/wire"
	"falcon/internal/netsim"
	"falcon/internal/nic"
)

// This file adapts each layer's stats and accessors to the registry and
// sampler. All collectors are lazy — they read layer state at snapshot or
// tick time, so attaching them costs nothing on packet paths. Metric
// names follow "<prefix>/<layer>/<metric>"; DESIGN.md §9 lists the full
// catalogue.

// CollectPDL registers a snapshot collector for one PDL connection:
// counters from pdl.Stats (retransmit causes, ACK coalescing, NACK codes)
// plus window-occupancy gauges.
func CollectPDL(r *Registry, prefix string, c *pdl.Conn) {
	r.OnSnapshot(func(emit func(string, float64)) {
		s := c.Stats
		emit(prefix+"/pdl/data_sent", float64(s.DataSent))
		emit(prefix+"/pdl/data_retransmits", float64(s.DataRetransmits))
		emit(prefix+"/pdl/retx_rack", float64(s.RetxRACK))
		emit(prefix+"/pdl/retx_ooo", float64(s.RetxOOO))
		emit(prefix+"/pdl/retx_tlp", float64(s.RetxTLP))
		emit(prefix+"/pdl/retx_rto", float64(s.RetxRTO))
		emit(prefix+"/pdl/retx_nack_backoff", float64(s.RetxNackBackoff))
		emit(prefix+"/pdl/tlp_probes", float64(s.TLPProbes))
		emit(prefix+"/pdl/rtos", float64(s.RTOs))
		emit(prefix+"/pdl/acks_sent", float64(s.AcksSent))
		emit(prefix+"/pdl/acks_immediate", float64(s.AcksImmediate))
		emit(prefix+"/pdl/acks_coalesced", float64(s.AcksCoalesced))
		emit(prefix+"/pdl/acks_received", float64(s.AcksReceived))
		emit(prefix+"/pdl/duplicates", float64(s.Duplicates))
		emit(prefix+"/pdl/nacks_sent", float64(s.NacksSent))
		emit(prefix+"/pdl/nacks_received", float64(s.NacksReceived))
		emit(prefix+"/pdl/nacks_rnr", float64(s.NacksRnr))
		emit(prefix+"/pdl/nacks_resource", float64(s.NacksResource))
		emit(prefix+"/pdl/nacks_cie", float64(s.NacksCie))
		emit(prefix+"/pdl/delivered_to_tl", float64(s.DeliveredToTL))
		emit(prefix+"/pdl/rx_window_drops", float64(s.RxWindowDrops))
		_, _, unackedReq := c.TxState(wire.SpaceRequest)
		_, _, unackedResp := c.TxState(wire.SpaceResponse)
		emit(prefix+"/pdl/tx_unacked_req", float64(unackedReq))
		emit(prefix+"/pdl/tx_unacked_resp", float64(unackedResp))
		emit(prefix+"/pdl/rx_window_req", float64(rxOccupancy(c, wire.SpaceRequest)))
		emit(prefix+"/pdl/rx_window_resp", float64(rxOccupancy(c, wire.SpaceResponse)))
		emit(prefix+"/pdl/queued_packets", float64(c.QueuedPackets()))
		emit(prefix+"/pdl/outstanding", float64(c.Outstanding()))
		emit(prefix+"/pdl/parked", float64(c.Parked()))
		emit(prefix+"/pdl/fcwnd", c.Fcwnd())
		emit(prefix+"/pdl/ncwnd", c.Ncwnd())
		emit(prefix+"/pdl/srtt_ns", float64(c.SRTT()))
	})
}

// rxOccupancy counts out-of-order packets held in the RX bitmap of one
// space.
func rxOccupancy(c *pdl.Conn, space wire.Space) int {
	_, bm := c.RxState(space)
	return bm.OnesCount()
}

// TrackPDL registers the per-connection congestion time series on a
// sampler: fcwnd, ncwnd, in-flight occupancy and the TL send queue — the
// cwnd-vs-time traces behind the paper's §6 congestion figures.
func TrackPDL(sp *Sampler, prefix string, c *pdl.Conn) {
	sp.Track(prefix+"/fcwnd", c.Fcwnd)
	sp.Track(prefix+"/ncwnd", c.Ncwnd)
	sp.Track(prefix+"/outstanding", func() float64 { return float64(c.Outstanding()) })
	sp.Track(prefix+"/queued_packets", func() float64 { return float64(c.QueuedPackets()) })
	sp.Track(prefix+"/srtt_ns", func() float64 { return float64(c.SRTT()) })
	sp.Track(prefix+"/retransmits", func() float64 { return float64(c.Stats.DataRetransmits) })
}

// CollectTL registers a snapshot collector for one TL connection.
func CollectTL(r *Registry, prefix string, c *tl.Conn) {
	r.OnSnapshot(func(emit func(string, float64)) {
		s := c.Stats
		emit(prefix+"/tl/pushes", float64(s.Pushes))
		emit(prefix+"/tl/pulls", float64(s.Pulls))
		emit(prefix+"/tl/completed_ok", float64(s.CompletedOK))
		emit(prefix+"/tl/completed_error", float64(s.CompletedError))
		emit(prefix+"/tl/rnr_retries", float64(s.RNRRetries))
		emit(prefix+"/tl/backpressured", float64(s.Backpressured))
		emit(prefix+"/tl/requests_served", float64(s.RequestsServed))
		emit(prefix+"/tl/outstanding_txns", float64(c.OutstandingTxns()))
		emit(prefix+"/tl/pending_responses", float64(c.PendingResponses()))
		emit(prefix+"/tl/reorder_backlog", float64(c.ReorderBacklog()))
		emit(prefix+"/tl/alpha", c.Alpha())
	})
}

// CollectNIC registers a snapshot collector for one NIC pipeline model.
func CollectNIC(r *Registry, prefix string, n *nic.NIC) {
	r.OnSnapshot(func(emit func(string, float64)) {
		s := n.Stats
		emit(prefix+"/nic/packets_processed", float64(s.PacketsProcessed))
		emit(prefix+"/nic/cache_hits", float64(s.CacheHits))
		emit(prefix+"/nic/l2_hits", float64(s.L2Hits))
		emit(prefix+"/nic/cache_misses", float64(s.CacheMisses))
		emit(prefix+"/nic/host_bytes", float64(s.HostBytes))
		emit(prefix+"/nic/spilled_bytes", float64(s.SpilledBytes))
		emit(prefix+"/nic/max_rx_occupancy", s.MaxRxOccupancy)
		emit(prefix+"/nic/rx_occupancy", n.RxOccupancy())
		emit(prefix+"/nic/global_wait_ns", float64(s.GlobalWait))
		emit(prefix+"/nic/conn_wait_ns", float64(s.ConnWait))
	})
}

// CollectPort registers a snapshot collector for one directed netsim
// port: traffic, drops, ECN marks and queue extremes.
func CollectPort(r *Registry, prefix string, p *netsim.Port) {
	r.OnSnapshot(func(emit func(string, float64)) {
		s := p.Stats
		emit(prefix+"/port/tx_frames", float64(s.TxFrames))
		emit(prefix+"/port/tx_bytes", float64(s.TxBytes))
		emit(prefix+"/port/queue_drops", float64(s.QueueDrops))
		emit(prefix+"/port/random_drops", float64(s.RandomDrops))
		emit(prefix+"/port/down_drops", float64(s.DownDrops))
		emit(prefix+"/port/reordered", float64(s.Reordered))
		emit(prefix+"/port/ecn_marks", float64(s.ECNMarks))
		emit(prefix+"/port/max_queue_bytes", float64(s.MaxQueueBytes))
		emit(prefix+"/port/queued_bytes", float64(p.QueuedBytes()))
	})
}

// CollectUplinks registers a snapshot collector over one equal-cost
// uplink group (a switch's RouteTo port set): per-uplink frame/byte
// counters plus the spread summary that makes routing-policy balance
// measurable — min/max/total frames and bytes, the relative imbalance,
// and the group's cumulative down-link drops (gray-failure loss). Names
// land under the "routing" layer: "<prefix>/upN/routing/<metric>" per
// uplink and "<prefix>/routing/<metric>" for the aggregates.
func CollectUplinks(r *Registry, prefix string, ports []*netsim.Port) {
	r.OnSnapshot(func(emit func(string, float64)) {
		var minF, maxF, totF uint64
		var minB, maxB, totB uint64
		var downDrops uint64
		for i, p := range ports {
			s := p.Stats
			up := prefix + "/up" + strconv.Itoa(i)
			emit(up+"/routing/tx_frames", float64(s.TxFrames))
			emit(up+"/routing/tx_bytes", float64(s.TxBytes))
			if i == 0 || s.TxFrames < minF {
				minF = s.TxFrames
			}
			if s.TxFrames > maxF {
				maxF = s.TxFrames
			}
			if i == 0 || s.TxBytes < minB {
				minB = s.TxBytes
			}
			if s.TxBytes > maxB {
				maxB = s.TxBytes
			}
			totF += s.TxFrames
			totB += s.TxBytes
			downDrops += s.DownDrops
		}
		emit(prefix+"/routing/uplinks", float64(len(ports)))
		emit(prefix+"/routing/frames_total", float64(totF))
		emit(prefix+"/routing/frames_min", float64(minF))
		emit(prefix+"/routing/frames_max", float64(maxF))
		emit(prefix+"/routing/bytes_total", float64(totB))
		emit(prefix+"/routing/bytes_min", float64(minB))
		emit(prefix+"/routing/bytes_max", float64(maxB))
		spread := 0.0
		if maxF > 0 {
			spread = float64(maxF-minF) * 100 / float64(maxF)
		}
		emit(prefix+"/routing/spread_pct", spread)
		emit(prefix+"/routing/down_drops_total", float64(downDrops))
	})
}

// TrackPort registers the queue-depth time series of one port — the
// queue-occupancy-vs-time traces behind the incast figures.
func TrackPort(sp *Sampler, prefix string, p *netsim.Port) {
	sp.Track(prefix+"/queued_bytes", func() float64 { return float64(p.QueuedBytes()) })
	sp.Track(prefix+"/queue_delay_ns", func() float64 { return float64(p.QueueDelay()) })
	sp.Track(prefix+"/tx_bytes", func() float64 { return float64(p.Stats.TxBytes) })
	sp.Track(prefix+"/queue_drops", func() float64 { return float64(p.Stats.QueueDrops) })
}

// CollectFAE registers a snapshot collector for one adaptive engine.
func CollectFAE(r *Registry, prefix string, e *fae.Engine) {
	r.OnSnapshot(func(emit func(string, float64)) {
		emit(prefix+"/fae/events_processed", float64(e.EventsProcessed))
		emit(prefix+"/fae/repaths", float64(e.Repaths))
	})
}

// ObserveFAE attaches an engine observer feeding delay histograms and CC
// counters: fabric-delay and RTT distributions (ns), packets acked under
// CC, ECN echoes and repath decisions. The observer writes only into
// preallocated registry instruments, so it adds no allocations to event
// processing.
func ObserveFAE(r *Registry, prefix string, e *fae.Engine) {
	fabric := r.Histogram(prefix + "/fae/fabric_delay_ns")
	rtt := r.Histogram(prefix + "/fae/rtt_ns")
	acked := r.Counter(prefix + "/fae/acked_packets")
	ece := r.Counter(prefix + "/fae/ece_echoes")
	repaths := r.Counter(prefix + "/fae/repath_responses")
	e.SetObserver(func(ev fae.Event, resp fae.Response) {
		if ev.Kind == fae.EventAck {
			fabric.RecordDuration(ev.FabricDelay)
			rtt.RecordDuration(ev.RTT)
			acked.Add(uint64(ev.AckedPackets))
			if ev.ECE {
				ece.Inc()
			}
		}
		if resp.Repathed {
			repaths.Inc()
		}
	})
}

// CollectChaos registers a snapshot collector for one storm run's report.
// The pointer is registered before the run and filled after it drains
// (experiments.Run snapshots after the figure returns), so the collector reads
// the completed report lazily. Every chaos metric is an integer derived
// from virtual-clock state, so same-seed storms must reproduce these
// values byte-identically.
func CollectChaos(r *Registry, prefix string, rep *chaos.Report) {
	r.OnSnapshot(func(emit func(string, float64)) {
		emit(prefix+"/chaos/events", float64(rep.Events))
		emit(prefix+"/chaos/baseline_goodput_mbps", float64(rep.Envelope.BaselineMbps))
		emit(prefix+"/chaos/storm_goodput_mbps", float64(rep.Envelope.StormMbps))
		emit(prefix+"/chaos/tail_goodput_mbps", float64(rep.Envelope.TailMbps))
		emit(prefix+"/chaos/recovered", boolMetric(rep.Envelope.Recovered))
		emit(prefix+"/chaos/recovery_gap_ns", float64(rep.Envelope.RecoveryNs))
		emit(prefix+"/chaos/retransmits", float64(rep.Retransmits))
		emit(prefix+"/chaos/baseline_retransmits", float64(rep.BaselineRetransmits))
		emit(prefix+"/chaos/rto_depth", float64(rep.RTODepth))
		emit(prefix+"/chaos/conns_total", float64(rep.ConnsTotal))
		emit(prefix+"/chaos/conns_survived", float64(rep.ConnsSurvived))
		emit(prefix+"/chaos/conns_failed", float64(rep.ConnsFailed))
		emit(prefix+"/chaos/completed_ops", float64(rep.Completed))
		emit(prefix+"/chaos/frames_sent", float64(rep.Ledger.Sent))
		emit(prefix+"/chaos/frames_delivered", float64(rep.Ledger.Delivered))
		emit(prefix+"/chaos/frames_dropped", float64(rep.Ledger.Dropped()))
		emit(prefix+"/chaos/down_drops", float64(rep.Ledger.DownDrops))
		emit(prefix+"/chaos/corrupt_drops", float64(rep.Ledger.CorruptDrops))
		emit(prefix+"/chaos/pause_rx_drops", float64(rep.Ledger.PauseRxDrops))
		emit(prefix+"/chaos/ledger_balanced", boolMetric(rep.Ledger.Balanced()))
	})
}

// boolMetric encodes a verdict as 0/1 for the exact-class chaos layer.
func boolMetric(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
