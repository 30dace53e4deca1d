// Package testkit is the deterministic verification harness for the Falcon
// simulator: protocol invariant checkers, streaming trace hashing, and a
// randomized fault-sweep runner. It exists so that every property the paper
// claims — reliable exactly-once delivery, ordering, bounded windows,
// deterministic replay — is checked continuously by machine rather than
// asserted once in prose.
//
// # Components
//
//   - TraceHasher folds every observable event of a run (scheduler events,
//     wire frames, PDL sends/receives with post-state, TL serves and
//     completions) into one streaming FNV-1a digest. Two runs are
//     behaviourally identical iff their digests match, which turns the
//     repository's "fixed seed → bit-for-bit reproducible" claim into a
//     single comparable integer.
//
//   - Checker re-validates the PDL and TL state machines after every probed
//     event: congestion-window enforcement, TX window bounds and scoreboard
//     consistency, RX bitmap/base coherence, monotone cumulative ACKs, and
//     exactly-once (in-order, for ordered connections) ULP interaction. A
//     violation panics with a full connection dump unless a FailFunc is
//     installed.
//
//   - Run / Matrix execute fault-sweep scenarios: a closed-loop workload
//     over a two-node cluster under combinations of random drop, reordering,
//     link degrade, RNR pressure, and resource exhaustion, with the checker
//     and hasher attached everywhere and post-run quiescence asserted
//     (nothing outstanding, every resource reservation returned).
//
// # Attaching probes
//
// All hooks are nil-checked single slots, costing one predictable branch
// when unattached, so they are compiled into production simulation paths
// without measurable overhead:
//
//	s.SetObserver(h)        // scheduler events
//	host.SetTap(h.TapFrame) // wire frames at NIC ingress
//	conn.SetProbe(h)        // pdl.Conn: sends + receives
//	tlc.SetProbe(h)         // tl.Conn: serves + completions
//
// Each slot holds one receiver. Run attaches a single probeSet that hands
// every hook to its flight ring, the Checker and the TraceHasher in turn,
// and dumps the ring's last 64 records with any violation. See DESIGN.md's
// "Verification" section for the invariant catalogue and the trace-record
// format.
package testkit
