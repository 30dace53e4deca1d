package tl

import (
	"errors"
	"slices"
	"testing"

	"falcon/internal/sim"
)

// parkBed is one connection on a node whose TX-request pool has a single
// context, held by a second connection (holder) until the test releases
// it: every push the connection attempts is refused by the full pool until
// then. Nothing is ever acked (nopCtrl).
type parkBed struct {
	s      *sim.Simulator
	res    *Resources
	c      *Conn
	holder *Conn
}

func newParkBed(t *testing.T) *parkBed {
	t.Helper()
	s := sim.New(1)
	rc := DefaultResourceConfig()
	rc.Pools[PoolTxReq].Contexts = 1
	res := NewResources(rc)
	cfg := DefaultConfig()
	cfg.Backpressure = BackpressureNone
	c := NewConn(s, 1, cfg, res, nopCtrl{}, nil)
	holder := newHolder(res)
	if err := holder.reserve(PoolTxReq, 0); err != nil {
		t.Fatal(err)
	}
	return &parkBed{s: s, res: res, c: c, holder: holder}
}

// freeOne returns the held context, waking the connection.
func (b *parkBed) freeOne() { b.holder.unreserve(PoolTxReq, 0) }

// pushWork returns work that pushes once, recording its index in runs on
// every attempt and in issued when the TL admits it.
func (b *parkBed) pushWork(i int, runs, issued *[]int) WorkFunc {
	return func() bool {
		*runs = append(*runs, i)
		if _, err := b.c.Push(nil, 0, nil); err != nil {
			return b.c.Dead() != nil
		}
		*issued = append(*issued, i)
		return true
	}
}

// TestSubmitKeepsOrderAcrossRefusals: work is admitted in submit order
// across refusals, one item per freed context: each release admits the
// head, and the item behind it is refused and stays parked.
func TestSubmitKeepsOrderAcrossRefusals(t *testing.T) {
	b := newParkBed(t)
	var runs, issued []int
	for i := 0; i < 5; i++ {
		b.c.Submit(b.pushWork(i, &runs, &issued))
	}
	if len(issued) != 0 || b.c.Parked() != 5 {
		t.Fatalf("issued %v with %d parked, want nothing issued and 5 parked", issued, b.c.Parked())
	}
	b.freeOne()
	for k := 1; k < 5; k++ {
		if len(issued) != k || b.c.Parked() != 5-k {
			t.Fatalf("after %d releases: issued %v with %d parked", k, issued, b.c.Parked())
		}
		// The admitted push holds the context; its release admits the
		// next item.
		b.c.unreserve(PoolTxReq, 0)
	}
	if want := []int{0, 1, 2, 3, 4}; !slices.Equal(issued, want) || b.c.Parked() != 0 {
		t.Fatalf("issued %v with %d parked, want %v and none", issued, b.c.Parked(), want)
	}
}

// TestSubmitQueuesBehindParkedWork: new work queues behind parked work
// even when the TL would admit it. A 4 KiB pull is refused by a full
// RX-response byte pool; a zero-byte push that would fit waits behind it,
// and the Xon edge issues both in submit order.
func TestSubmitQueuesBehindParkedWork(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Backpressure = BackpressureNone
	e := newEnv(t, cfg)
	e.resA.pools[PoolRxResp].cfg.Bytes = 4096
	e.ctrlA.holdRequests = true
	if _, err := e.a.Pull(4096, nil); err != nil {
		t.Fatal(err)
	}
	var order []string
	e.a.Submit(WorkFunc(func() bool {
		_, err := e.a.Pull(4096, func([]byte, error) { order = append(order, "pull") })
		return err == nil
	}))
	pushRuns := 0
	e.a.Submit(WorkFunc(func() bool {
		pushRuns++
		_, err := e.a.Push(nil, 0, func([]byte, error) { order = append(order, "push") })
		return err == nil
	}))
	if pushRuns != 0 || e.a.Parked() != 2 || e.a.Stats.Pushes != 0 {
		t.Fatalf("push ran %d times and %d pushes issued with %d parked, want 0, 0 and 2",
			pushRuns, e.a.Stats.Pushes, e.a.Parked())
	}
	e.ctrlA.holdRequests = false
	e.ctrlA.releaseHeld(0)
	e.s.Run()
	if want := []string{"pull", "push"}; !slices.Equal(order, want) || pushRuns != 1 || e.a.Parked() != 0 {
		t.Fatalf("completions %v, push ran %d times, %d parked; want %v, once, none", order, pushRuns, e.a.Parked(), want)
	}
}

// TestResumeStopsAtFirstRefusedAgain: the Xon edge runs parked work from
// the head and stops at the first item the TL refuses again; the items
// behind it do not run.
func TestResumeStopsAtFirstRefusedAgain(t *testing.T) {
	b := newParkBed(t)
	var runs, issued []int
	for i := 0; i < 3; i++ {
		b.c.Submit(b.pushWork(i, &runs, &issued))
	}
	b.freeOne() // item 0 takes the freed context; item 1 is refused again
	if want := []int{0, 0, 1}; !slices.Equal(runs, want) {
		t.Fatalf("runs %v, want %v", runs, want)
	}
	if want := []int{0}; !slices.Equal(issued, want) || b.c.Parked() != 2 {
		t.Fatalf("issued %v with %d parked, want %v and 2", issued, b.c.Parked(), want)
	}
}

// TestFailRunsParkedWorkOnce: after the connection fails, every parked
// item runs exactly once more, sees Dead, and the queue empties.
func TestFailRunsParkedWorkOnce(t *testing.T) {
	b := newParkBed(t)
	var runs, issued []int
	dead := 0
	for i := 0; i < 3; i++ {
		work := b.pushWork(i, &runs, &issued)
		b.c.Submit(WorkFunc(func() bool {
			if b.c.Dead() != nil {
				dead++
			}
			return work()
		}))
	}
	boom := errors.New("boom")
	b.c.Fail(boom)
	if dead != 0 {
		t.Fatalf("parked work ran %d times inside Fail, want after teardown", dead)
	}
	b.s.Run()
	if want := []int{0, 0, 1, 2}; !slices.Equal(runs, want) || dead != 3 || len(issued) != 0 {
		t.Fatalf("runs %v (%d saw Dead), issued %v; want %v, 3, none", runs, dead, issued, want)
	}
	if b.c.Parked() != 0 || !errors.Is(b.c.Dead(), boom) {
		t.Fatalf("%d parked, Dead %v after teardown; want none and %v", b.c.Parked(), b.c.Dead(), boom)
	}
	b.freeOne() // a dead connection is not woken
	b.s.Run()
	if len(runs) != 4 {
		t.Fatalf("parked work ran again after teardown: runs %v", runs)
	}
}

// TestSubmitResumeAllocationFree: submitting pre-bound work that is
// refused, parking it and resuming it on the Xon edge allocate nothing.
func TestSubmitResumeAllocationFree(t *testing.T) {
	b := newParkBed(t)
	attempt := 0
	work := WorkFunc(func() bool {
		attempt++
		if attempt%2 == 1 { // refused by the full pool: parked
			_, err := b.c.Push(nil, 0, nil)
			return err == nil
		}
		return true // resumed: done
	})
	cycle := func() {
		b.c.Submit(work)
		b.freeOne()
		if err := b.holder.reserve(PoolTxReq, 0); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // grow the queues once
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("submit, park and resume: %v allocs/op, want 0", n)
	}
	if b.c.Parked() != 0 || attempt != 2*102 || b.c.Stats.Backpressured != 102 {
		t.Fatalf("%d parked after %d runs and %d refusals", b.c.Parked(), attempt, b.c.Stats.Backpressured)
	}
}
