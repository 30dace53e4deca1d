package chaos

import (
	"fmt"

	"falcon/internal/netsim"
)

// Ledger is the frame-conservation audit of one fabric after full drain:
// every frame a host handed to its NIC must either have been delivered to
// a receiving host's handler or be attributed to exactly one named drop
// counter. A storm that leaks frames (a pooled frame released twice, a
// drop path that forgets to count) breaks the balance.
type Ledger struct {
	Sent         uint64 // ΣHost.SentFrames (frames that left a NIC)
	Delivered    uint64 // ΣHost.RxFrames (frames handed to a host handler)
	QueueDrops   uint64 // Σ port tail drops
	RandomDrops  uint64 // Σ port random-loss drops
	DownDrops    uint64 // Σ port down-window drops
	CorruptDrops uint64 // Σ port corruption-window drops
	PauseRxDrops uint64 // Σ frames that arrived at a paused host
}

// Audit sums the ledger over every host and port of the network. Call it
// only after the simulator has drained (s.Run() returned): in-flight
// frames are neither delivered nor dropped and would unbalance the books.
func Audit(n *netsim.Network) Ledger {
	var l Ledger
	for _, h := range n.Hosts() {
		l.Sent += h.SentFrames
		l.Delivered += h.RxFrames
		l.PauseRxDrops += h.PauseRxDrops
	}
	for _, p := range n.Ports() {
		l.QueueDrops += p.Stats.QueueDrops
		l.RandomDrops += p.Stats.RandomDrops
		l.DownDrops += p.Stats.DownDrops
		l.CorruptDrops += p.Stats.CorruptDrops
	}
	return l
}

// Dropped is the sum of every named drop counter.
func (l Ledger) Dropped() uint64 {
	return l.QueueDrops + l.RandomDrops + l.DownDrops + l.CorruptDrops + l.PauseRxDrops
}

// Balanced reports whether sent = delivered + dropped.
func (l Ledger) Balanced() bool {
	return l.Sent == l.Delivered+l.Dropped()
}

// String renders the ledger for failure messages and the storm gate.
func (l Ledger) String() string {
	return fmt.Sprintf("sent=%d delivered=%d queue=%d random=%d down=%d corrupt=%d pause_rx=%d (balance %+d)",
		l.Sent, l.Delivered, l.QueueDrops, l.RandomDrops, l.DownDrops, l.CorruptDrops, l.PauseRxDrops,
		int64(l.Sent)-int64(l.Delivered+l.Dropped()))
}
