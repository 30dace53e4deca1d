package ring

import (
	"math/rand"
	"slices"
	"testing"
)

// TestTableProperty drives the Table through a randomized
// transaction-lifecycle workload alongside a plain map model, checking
// after every operation batch that len, membership, lookups, deletions,
// and sorted key iteration all agree. The workload mirrors how the TL
// uses the table: keys are assigned sequentially (nextRSN++), deleted in
// roughly arrival order with random skips (acks, cancellations, RNR
// retries completing out of order), and occasionally drained wholesale
// (connection failure).
func TestTableProperty(t *testing.T) {
	t.Run("dense", func(t *testing.T) {
		for seed := int64(1); seed <= 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			var tab Table[int]
			model := map[uint64]int{}
			var live []uint64 // model keys, insertion order
			next := uint64(0)
			if seed%2 == 0 {
				// Half the seeds start near a high RSN so large
				// absolute keys (and low/high bound handling far from
				// zero) are exercised too.
				next = uint64(1)<<40 + uint64(rng.Intn(1000))
			}

			checkSorted := func() {
				got := tab.Sorted()
				want := append([]uint64(nil), live...)
				slices.Sort(want)
				if len(got) != len(want) {
					t.Fatalf("seed %d: sorted len %d, model %d", seed, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("seed %d: sorted[%d] = %d, model %d", seed, i, got[i], want[i])
					}
				}
			}

			for step := 0; step < 4000; step++ {
				switch op := rng.Intn(10); {
				case op < 4: // insert the next sequential RSN
					v := rng.Int()
					tab.Put(next, v)
					model[next] = v
					live = append(live, next)
					next++
				case op < 6 && len(live) > 0: // delete near the front (in-order ack)
					i := rng.Intn(minv(len(live), 4))
					rsn := live[i]
					live = append(live[:i], live[i+1:]...)
					wantV := model[rsn]
					delete(model, rsn)
					gotV, ok := tab.Del(rsn)
					if !ok || gotV != wantV {
						t.Fatalf("seed %d step %d: del(%d) = %d,%v want %d,true", seed, step, rsn, gotV, ok, wantV)
					}
				case op < 7 && len(live) > 0: // delete anywhere (unordered completion)
					i := rng.Intn(len(live))
					rsn := live[i]
					live = append(live[:i], live[i+1:]...)
					delete(model, rsn)
					if _, ok := tab.Del(rsn); !ok {
						t.Fatalf("seed %d step %d: del(%d) missed", seed, step, rsn)
					}
				case op < 8: // overwrite a live key (retry state update)
					if len(live) == 0 {
						continue
					}
					rsn := live[rng.Intn(len(live))]
					v := rng.Int()
					tab.Put(rsn, v)
					model[rsn] = v
				case op < 9: // probe a key that may or may not be live
					rsn := uint64(0)
					if len(live) > 0 && rng.Intn(2) == 0 {
						rsn = live[rng.Intn(len(live))]
					} else if next > 0 {
						rsn = next - uint64(rng.Intn(int(minv(uint64(200), next))+1))
					}
					wantV, wantOK := model[rsn]
					gotV, gotOK := tab.Get(rsn)
					if gotOK != wantOK || (gotOK && gotV != wantV) {
						t.Fatalf("seed %d step %d: get(%d) = %d,%v want %d,%v", seed, step, rsn, gotV, gotOK, wantV, wantOK)
					}
					if tab.Has(rsn) != wantOK {
						t.Fatalf("seed %d step %d: has(%d) = %v want %v", seed, step, rsn, !wantOK, wantOK)
					}
				default: // missing-key delete must be a no-op miss
					rsn := next + uint64(rng.Intn(100)) + 1
					if _, ok := tab.Del(rsn); ok {
						t.Fatalf("seed %d step %d: del(%d) hit a never-inserted key", seed, step, rsn)
					}
				}
				if tab.Len() != len(model) {
					t.Fatalf("seed %d step %d: len %d, model %d", seed, step, tab.Len(), len(model))
				}
				if step%97 == 0 {
					checkSorted()
				}
				if step%1511 == 1510 { // wholesale drain (connection failure)
					for _, rsn := range tab.Sorted() {
						if _, ok := tab.Del(rsn); !ok {
							t.Fatalf("seed %d step %d: drain del(%d) missed", seed, step, rsn)
						}
					}
					model = map[uint64]int{}
					live = live[:0]
				}
			}
			checkSorted()
			// Drain everything and verify emptiness semantics.
			for _, rsn := range tab.Sorted() {
				tab.Del(rsn)
			}
			if tab.Len() != 0 || len(tab.Sorted()) != 0 {
				t.Fatalf("seed %d: table not empty after drain", seed)
			}
		}
	})
}

func minv[T int | uint64](a, b T) T {
	if a < b {
		return a
	}
	return b
}

// TestTableLazy: a table that was never written to owns no storage and
// answers every query with "absent"; its first put allocates it.
func TestTableLazy(t *testing.T) {
	var tab Table[int]
	if tab.Has(0) || tab.Len() != 0 || tab.Cap() != 0 || len(tab.Sorted()) != 0 {
		t.Fatal("empty table reports a key")
	}
	if _, ok := tab.Get(7); ok {
		t.Fatal("get on an empty table hit")
	}
	if _, ok := tab.Del(7); ok {
		t.Fatal("del on an empty table hit")
	}
	if tab.keys != nil || tab.vals != nil {
		t.Fatal("queries allocated the table")
	}
	tab.Put(7, 70)
	if v, ok := tab.Get(7); !ok || v != 70 || len(tab.keys) != tableMin {
		t.Fatalf("first put: get = %d,%v, ring of %d", v, ok, len(tab.keys))
	}
}
