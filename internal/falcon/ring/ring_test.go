package ring

import (
	"math/rand"
	"testing"
)

// TestRingMatchesSliceModel drives a Ring and a plain-slice FIFO with the
// same random push/pop/peek script and compares every result. The push
// bias changes over the script: each filling phase grows the backlog by
// about 2000 items and each draining phase empties it, so the ring wraps
// at every size it grows through (4 to at least 2048) and runs empty in
// between. Some pushes happen between a Peek and its Pop, as when Conn.resumeParked runs the
// head item and that item submits more work: the head must stay the head
// across the push, growth included.
func TestRingMatchesSliceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var r Ring[int]
	var model []int
	next := 0
	grows, empties := 0, 0
	push := func() {
		before := len(r.buf)
		r.Push(next)
		model = append(model, next)
		next++
		if len(r.buf) != before {
			grows++
		}
	}
	pop := func(step int) {
		want := model[0]
		model = model[1:]
		if got := r.Pop(); got != want {
			t.Fatalf("step %d: Pop = %d, want %d", step, got, want)
		}
	}
	for step := 0; step < 200_000; step++ {
		// Phases of 20k steps alternate between filling (a net 0.1 items
		// per step) and draining (a net -0.3).
		pushBias := 0.45
		if step/20_000%2 == 1 {
			pushBias = 0.25
		}
		switch x := rng.Float64(); {
		case len(model) == 0 || x < pushBias:
			push()
		case x < pushBias+0.1:
			// Run the head: peek it, push behind it while it "runs",
			// then pop it.
			head := r.Peek()
			for k := rng.Intn(3); k >= 0; k-- {
				push()
			}
			if got := r.Peek(); got != head {
				t.Fatalf("step %d: head changed from %d to %d under a push", step, head, got)
			}
			pop(step)
		default:
			if got := r.Peek(); got != model[0] {
				t.Fatalf("step %d: Peek = %d, want %d", step, got, model[0])
			}
			pop(step)
		}
		if len(model) == 0 {
			empties++
		}
		if r.Len() != len(model) {
			t.Fatalf("step %d: Len = %d, want %d", step, r.Len(), len(model))
		}
		if n := len(r.buf); n&(n-1) != 0 || n < r.Len() {
			t.Fatalf("step %d: buffer of %d for %d items", step, n, r.Len())
		}
	}
	if len(r.buf) < 2048 || empties < 5 {
		t.Fatalf("the script grew the ring %d times (to %d slots) and emptied it %d times, want >= 2048 slots and >= 5 empties",
			grows, len(r.buf), empties)
	}
	for len(model) > 0 {
		pop(-1)
	}
	for i, v := range r.buf {
		if v != 0 {
			t.Fatalf("drained ring still holds %d in slot %d", v, i)
		}
	}
}

// TestRespQueueCompactsUnderStandingBacklog keeps one deferred response
// always waiting for 10^5 push/pop cycles: the queue never drains to
// empty, yet its buffer must stay the smallest ring that holds the backlog
// and its order FIFO.
func TestRespQueueCompactsUnderStandingBacklog(t *testing.T) {
	var q Ring[uint64]
	q.Push(0)
	for i := uint64(1); i <= 100_000; i++ {
		q.Push(i)
		if rsn := q.Pop(); rsn != i-1 {
			t.Fatalf("cycle %d popped RSN %d", i, rsn)
		}
	}
	if q.Len() != 1 || len(q.buf) > 4 {
		t.Fatalf("standing backlog of %d left a buffer of %d slots", q.Len(), len(q.buf))
	}
}

// TestRingZeroValueOwnsNothing: an unused ring holds no buffer, and
// peeking or popping an empty ring panics instead of returning a stale
// slot.
func TestRingZeroValueOwnsNothing(t *testing.T) {
	var r Ring[*int]
	if r.buf != nil || r.Len() != 0 {
		t.Fatal("zero Ring owns a buffer")
	}
	r.Push(new(int))
	r.Pop()
	for name, f := range map[string]func(){"Peek": func() { r.Peek() }, "Pop": func() { r.Pop() }} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on an empty ring did not panic", name)
				}
			}()
			f()
		}()
	}
}
