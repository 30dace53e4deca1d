// Package routing is the pluggable fabric routing subsystem of netsim:
// the per-frame uplink-selection policies a switch applies across
// equal-cost next hops. It imports nothing; the gray failures those
// policies route around are scheduled by internal/chaos.
//
// A Policy picks one egress out of an equal-cost candidate set from three
// deterministic inputs: the frame's flow-label hash (what ECMP hashes),
// a per-(switch, destination) packet counter (what per-packet spray
// advances), and the candidates' live queue depths (what adaptive routing
// compares). Three implementations cover the classic design space the
// ultra-ethernet literature evaluates against Falcon's transport-level
// multipath + PLB repathing:
//
//   - ECMP — hash the flow label; every packet of a flow label pins to
//     one path. This is the default and reproduces the selection netsim
//     hard-coded before this package existed, bit for bit.
//   - Spray — per-packet round-robin over the candidate set, oblivious
//     to both flows and congestion. Perfect spread, maximal reordering.
//   - Adaptive — least queued bytes, ties broken by the lowest port
//     index. Congestion-aware in the switch, the fabric-side analogue of
//     what Falcon's PLB does end-to-end.
//
// Policies are stateless values: all mutable selection state (the spray
// counter) lives in dense per-switch arrays indexed by destination
// NodeID, owned by netsim.Switch, so a single policy value can be shared
// by every switch in a network — and by networks running in parallel
// falconbench workers. Select is on the fabric's per-frame fast path and
// must not allocate; the interface is shaped so implementations never
// need to (inputs arrive by value, queue depths through a reused
// pointer-backed view).
package routing

// QueueDepths exposes the live egress queue occupancy of an equal-cost
// candidate set to a Policy. netsim passes a view backed by the switch's
// port slice; index i corresponds to candidate i of the same Select
// call. Implementations must treat it as read-only and must not retain
// it past return (the view is reused per frame).
type QueueDepths interface {
	// QueuedBytes returns the bytes awaiting serialization on candidate i.
	QueuedBytes(i int) int
}

// Key carries the per-frame, per-switch inputs a policy may hash on.
// All fields are plain integers so a Key travels by value with no
// allocation.
type Key struct {
	// FlowHash is the frame's flow-label hash — the transport derives it
	// from the 4-tuple plus the IPv6 flow label, so a PLB repath changes
	// it and (under ECMP) moves the flow to a different path.
	FlowHash uint64
	// Salt is the per-switch decorrelation salt: distinct switches must
	// not send the same flow to the same relative uplink index.
	Salt uint64
	// Src and Dst are the frame's endpoint NodeIDs, widened.
	Src, Dst uint64
}

// Policy selects an uplink from an equal-cost candidate set. Implementations
// must be deterministic pure functions of (k, n, *state, q): no global
// state, no randomness, no allocation. n is always >= 2 (a single-port
// route needs no policy) and the returned index must be in [0, n).
//
// state points at the per-(switch, destination) policy word the owning
// switch keeps in a dense NodeID-indexed array; it is zero until a policy
// first writes it. ECMP and Adaptive ignore it, Spray uses it as its
// round-robin packet counter.
type Policy interface {
	// Name is the stable identifier used in table rows and telemetry
	// prefixes: "ecmp", "spray", "adaptive".
	Name() string
	// Select returns the chosen candidate index in [0, n).
	Select(k Key, n int, state *uint64, q QueueDepths) int
}

// Mix64 is a splitmix64 finalizer: a cheap avalanche so per-switch salts
// decorrelate ECMP choices. It is the exact mixer netsim's switches have
// always used (moved here when selection became pluggable), so default
// routes are byte-identical to the pre-extraction fabric.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// ECMP pins each flow label to one path: the candidate index is the
// mixed hash of (flow hash, switch salt, src, dst) modulo the set size.
// This is the selection netsim hard-coded before routing was pluggable,
// preserved bit for bit — the default policy's trace hashes match the
// pre-package fabric exactly.
type ECMP struct{}

// Name returns "ecmp".
func (ECMP) Name() string { return "ecmp" }

// Select implements Policy.
func (ECMP) Select(k Key, n int, _ *uint64, _ QueueDepths) int {
	h := Mix64(k.FlowHash ^ k.Salt ^ k.Dst<<32 ^ k.Src)
	return int(h % uint64(n))
}

// Spray is per-packet round-robin: each frame toward a destination takes
// the next candidate in turn, regardless of flow. The counter lives in
// the switch's per-destination state word, so spray is exact — over any
// window of c*n frames toward one destination every candidate carries
// exactly c of them.
type Spray struct{}

// Name returns "spray".
func (Spray) Name() string { return "spray" }

// Select implements Policy.
func (Spray) Select(_ Key, n int, state *uint64, _ QueueDepths) int {
	i := int(*state % uint64(n))
	*state++
	return i
}

// Adaptive picks the candidate with the fewest queued bytes, breaking
// ties by the lowest port index. It reads the live queue depths at
// selection time, so it chases transient congestion the way adaptive
// fabrics do — and, like them, it can reorder a flow whenever queue
// rankings shift.
type Adaptive struct{}

// Name returns "adaptive".
func (Adaptive) Name() string { return "adaptive" }

// Select implements Policy.
func (Adaptive) Select(_ Key, n int, _ *uint64, q QueueDepths) int {
	best := 0
	bestQ := q.QueuedBytes(0)
	for i := 1; i < n; i++ {
		if d := q.QueuedBytes(i); d < bestQ {
			best, bestQ = i, d
		}
	}
	return best
}

// Policies returns one instance of every built-in policy, in the stable
// order ECMP, Spray, Adaptive — the sweep order figRouting and
// figGrayFailure report in.
func Policies() []Policy { return []Policy{ECMP{}, Spray{}, Adaptive{}} }
