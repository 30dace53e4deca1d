package ring

// Table is a dense open-addressed table keyed by sequence number: the TL's
// RSNs and RoCE's PSNs. Keys are assigned sequentially and live entries
// span a bounded window (a send window or the resource contexts bound
// what is outstanding), so direct modulo indexing into a power-of-two ring
// almost never collides: two live keys can only share a slot when the
// window is wider than the table, and growing the table to exceed the
// window restores injectivity (keys within a window narrower than the
// table size never differ by a multiple of it). The result is map
// semantics with array-indexing cost and zero steady-state allocation. A
// caller must forget keys as its window moves on: a span that grows
// without bound grows the ring with it.
//
// Keys are stored as key+1 so the zero value means "empty"; low/high
// bracket the live keys for ordered iteration.
//
// The zero value is an empty table that owns no storage: the ring is
// allocated by the first Put. A one-way connection leaves half of its
// tables untouched for its whole life (the initiator never buffers
// requests, the target never opens transactions), so those cost nothing.
type Table[T any] struct {
	keys []uint64 // key+1; 0 = empty
	vals []T
	n    int
	low  uint64 // lower bound on live keys (advanced lazily)
	high uint64 // strict upper bound on live keys
}

// tableMin is the ring length a table allocates on its first Put. It is
// small on purpose: a table grows to the key span it actually sees (a
// connection with one 64 KiB op in flight spans 16 RSNs), and lookups,
// Bounds and Sorted are keyed by sequence number, so the ring's size never
// changes an order.
const tableMin = 8

// Len returns the number of live keys.
func (t *Table[T]) Len() int { return t.n }

// Cap returns the ring's length: zero until the first Put.
func (t *Table[T]) Cap() int { return len(t.keys) }

func (t *Table[T]) idx(key uint64) int { return int(key & uint64(len(t.keys)-1)) }

// Get returns the value stored under key.
func (t *Table[T]) Get(key uint64) (T, bool) {
	if t.n > 0 {
		if i := t.idx(key); t.keys[i] == key+1 {
			return t.vals[i], true
		}
	}
	var zero T
	return zero, false
}

// Has reports whether key is live.
func (t *Table[T]) Has(key uint64) bool {
	return t.n > 0 && t.keys[t.idx(key)] == key+1
}

// Put stores v under key, growing the ring if key collides with a live
// key.
func (t *Table[T]) Put(key uint64, v T) {
	if t.keys == nil {
		t.keys, t.vals = make([]uint64, tableMin), make([]T, tableMin)
	}
	i := t.idx(key)
	if t.keys[i] == key+1 {
		t.vals[i] = v
		return
	}
	for t.keys[i] != 0 {
		t.grow()
		i = t.idx(key)
	}
	t.keys[i] = key + 1
	t.vals[i] = v
	if t.n == 0 || key < t.low {
		t.low = key
	}
	if key+1 > t.high {
		t.high = key + 1
	}
	t.n++
}

// Del removes key, returning the stored value.
func (t *Table[T]) Del(key uint64) (T, bool) {
	var zero T
	if t.n == 0 {
		return zero, false
	}
	i := t.idx(key)
	if t.keys[i] != key+1 {
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
// of it, so the reinsert pass cannot collide (and Put's retry loop covers
// the new key still colliding — it just grows again).
func (t *Table[T]) grow() {
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

// Bounds returns lo, the smallest live key (advancing the cached bound
// past deleted entries), and hi, a strict upper bound on live keys: every
// live key lies in [lo, hi). An empty table returns lo == hi.
func (t *Table[T]) Bounds() (lo, hi uint64) {
	for t.low < t.high && t.keys[t.idx(t.low)] != t.low+1 {
		t.low++
	}
	return t.low, t.high
}

// Sorted returns the live keys in ascending order (diagnostics and
// teardown).
func (t *Table[T]) Sorted() []uint64 {
	out := make([]uint64, 0, t.n)
	lo, hi := t.Bounds()
	for key := lo; key < hi; key++ {
		if t.Has(key) {
			out = append(out, key)
		}
	}
	return out
}
