package tl

// rsnTable is a dense open-addressed table keyed by RSN. RSNs are
// assigned sequentially and live entries span a bounded window (resource
// contexts bound outstanding transactions), so direct modulo indexing
// into a power-of-two ring almost never collides: two live keys can only
// share a slot when the window is wider than the table, and growing the
// table to exceed the window restores injectivity (keys within a window
// narrower than the table size never differ by a multiple of it). The
// result is map semantics with array-indexing cost and zero steady-state
// allocation — this is what replaces the four per-connection maps on the
// TL hot path.
//
// Keys are stored as rsn+1 so the zero value means "empty"; low/high
// bracket the live keys for ordered iteration.
//
// The zero value is an empty table that owns no storage: the ring is
// allocated by the first put. A one-way connection leaves half of its
// tables untouched for its whole life (the initiator never buffers
// requests, the target never opens transactions), so those cost nothing.
type rsnTable[T any] struct {
	keys []uint64 // rsn+1; 0 = empty
	vals []T
	n    int
	low  uint64 // lower bound on live keys (advanced lazily)
	high uint64 // strict upper bound on live keys
}

// rsnTableMin is the ring length a table allocates on its first put.
const rsnTableMin = 32

func (t *rsnTable[T]) len() int { return t.n }

func (t *rsnTable[T]) idx(rsn uint64) int { return int(rsn & uint64(len(t.keys)-1)) }

func (t *rsnTable[T]) get(rsn uint64) (T, bool) {
	if t.n > 0 {
		if i := t.idx(rsn); t.keys[i] == rsn+1 {
			return t.vals[i], true
		}
	}
	var zero T
	return zero, false
}

func (t *rsnTable[T]) has(rsn uint64) bool {
	return t.n > 0 && t.keys[t.idx(rsn)] == rsn+1
}

func (t *rsnTable[T]) put(rsn uint64, v T) {
	if t.keys == nil {
		t.keys, t.vals = make([]uint64, rsnTableMin), make([]T, rsnTableMin)
	}
	i := t.idx(rsn)
	if t.keys[i] == rsn+1 {
		t.vals[i] = v
		return
	}
	for t.keys[i] != 0 {
		t.grow()
		i = t.idx(rsn)
	}
	t.keys[i] = rsn + 1
	t.vals[i] = v
	if t.n == 0 || rsn < t.low {
		t.low = rsn
	}
	if rsn+1 > t.high {
		t.high = rsn + 1
	}
	t.n++
}

// del removes rsn, returning the stored value.
func (t *rsnTable[T]) del(rsn uint64) (T, bool) {
	var zero T
	if t.n == 0 {
		return zero, false
	}
	i := t.idx(rsn)
	if t.keys[i] != rsn+1 {
		return zero, false
	}
	v := t.vals[i]
	t.keys[i] = 0
	t.vals[i] = zero
	t.n--
	if t.n == 0 {
		t.low, t.high = 0, 0
	}
	return v, true
}

// grow resizes the ring to exceed the live key span and reinserts. Keys
// whose span is narrower than the table size never differ by a multiple
// of it, so the reinsert pass cannot collide (and put's retry loop covers
// the new key still colliding — it just grows again).
func (t *rsnTable[T]) grow() {
	oldKeys, oldVals := t.keys, t.vals
	var lo, hi uint64
	first := true
	for _, k := range oldKeys {
		if k == 0 {
			continue
		}
		if first {
			lo, hi, first = k, k, false
			continue
		}
		if k < lo {
			lo = k
		}
		if k > hi {
			hi = k
		}
	}
	size := len(oldKeys) * 2
	for uint64(size) <= hi-lo {
		size *= 2
	}
	t.keys = make([]uint64, size)
	t.vals = make([]T, size)
	for i, k := range oldKeys {
		if k != 0 {
			j := t.idx(k - 1)
			t.keys[j] = k
			t.vals[j] = oldVals[i]
		}
	}
}

// lowBound returns the smallest live key (advancing the cached bound past
// deleted entries); callers iterate rsn from lowBound() to high.
func (t *rsnTable[T]) lowBound() uint64 {
	for t.low < t.high && t.keys[t.idx(t.low)] != t.low+1 {
		t.low++
	}
	return t.low
}

// sorted returns the live keys in ascending order (diagnostics).
func (t *rsnTable[T]) sorted() []uint64 {
	out := make([]uint64, 0, t.n)
	for rsn := t.lowBound(); rsn < t.high; rsn++ {
		if t.has(rsn) {
			out = append(out, rsn)
		}
	}
	return out
}
