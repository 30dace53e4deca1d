package testkit

import (
	"strings"
	"testing"

	"falcon/internal/falcon/tl"
	"falcon/internal/sim"
)

func recordingChecker() (*Checker, *[]string) {
	var got []string
	k := NewChecker()
	k.FailFunc = func(format string, args ...any) {
		got = append(got, format)
	}
	return k, &got
}

func newTLConn(ordered bool) *tl.Conn {
	cfg := tl.DefaultConfig()
	cfg.Ordered = ordered
	return tl.NewConn(sim.New(1), 1, cfg, tl.NewResources(tl.DefaultResourceConfig()), nil, nil)
}

func TestCheckerDuplicateServe(t *testing.T) {
	k, got := recordingChecker()
	c := newTLConn(true)
	k.OnRequestServed(c, 0)
	k.OnRequestServed(c, 1)
	if len(*got) != 0 {
		t.Fatalf("in-order serves flagged: %v", *got)
	}
	k.OnRequestServed(c, 1)
	if len(*got) != 1 || !strings.Contains((*got)[0], "served RSN %d twice") {
		t.Fatalf("duplicate serve not flagged, got %v", *got)
	}
}

func TestCheckerOutOfOrderServe(t *testing.T) {
	k, got := recordingChecker()
	k.OnRequestServed(newTLConn(true), 3)
	if len(*got) != 1 || !strings.Contains((*got)[0], "out of order") {
		t.Fatalf("out-of-order serve not flagged, got %v", *got)
	}

	// Unordered connections may serve in any order — but never twice.
	k2, got2 := recordingChecker()
	u := newTLConn(false)
	k2.OnRequestServed(u, 3)
	k2.OnRequestServed(u, 0)
	if len(*got2) != 0 {
		t.Fatalf("unordered serves flagged: %v", *got2)
	}
	k2.OnRequestServed(u, 3)
	if len(*got2) != 1 {
		t.Fatalf("duplicate unordered serve not flagged")
	}
}

func TestCheckerDuplicateCompletion(t *testing.T) {
	k, got := recordingChecker()
	c := newTLConn(true)
	k.OnCompletion(c, 0, nil)
	k.OnCompletion(c, 0, nil)
	if len(*got) != 1 || !strings.Contains((*got)[0], "duplicate ULP completion") {
		t.Fatalf("duplicate completion not flagged, got %v", *got)
	}
	if k.Violations != 1 || k.CompletedCount(c) != 1 {
		t.Fatalf("violations=%d completed=%d", k.Violations, k.CompletedCount(c))
	}
}

func TestCheckerDefaultPanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("default FailFunc did not panic")
		}
		if !strings.Contains(r.(string), "invariant violation") {
			t.Fatalf("panic message %q", r)
		}
	}()
	k := NewChecker()
	c := newTLConn(true)
	k.OnCompletion(c, 0, nil)
	k.OnCompletion(c, 0, nil)
}

func TestTraceHasherDeterministic(t *testing.T) {
	mk := func() *TraceHasher {
		h := NewTraceHasher()
		h.OnEvent(100, 1)
		h.OnEvent(250, 2)
		return h
	}
	a, b := mk(), mk()
	if a.Sum64() != b.Sum64() || a.Records() != 2 {
		t.Fatalf("identical streams hash differently: %v vs %v", a, b)
	}

	// Order sensitivity: swapping two records must change the digest.
	c := NewTraceHasher()
	c.OnEvent(250, 2)
	c.OnEvent(100, 1)
	if c.Sum64() == a.Sum64() {
		t.Fatal("hash is order-insensitive")
	}

	// Content sensitivity: one changed field must change the digest.
	d := NewTraceHasher()
	d.OnEvent(100, 1)
	d.OnEvent(250, 3)
	if d.Sum64() == a.Sum64() {
		t.Fatal("hash ignores record contents")
	}

	if !strings.HasPrefix(a.String(), "fnv1a:") || !strings.HasSuffix(a.String(), "/2") {
		t.Fatalf("String() = %q", a.String())
	}
}
