package telemetry

import (
	"bytes"
	"testing"
	"time"

	"falcon/internal/sim"
)

func TestRegistrySnapshotSortedAndDeterministic(t *testing.T) {
	build := func() Snapshot {
		r := NewRegistry()
		r.Counter("z/count").Add(3)
		r.Counter("a/count").Inc()
		h := r.Histogram("lat")
		h.Record(100)
		h.Record(200)
		r.OnSnapshot(func(emit func(string, float64)) {
			emit("m/gauge", 2.5)
			emit("lazy/metric", 7)
		})
		return r.Snapshot(sim.Time(1234))
	}
	s1, s2 := build(), build()

	for i := 1; i < len(s1.Metrics); i++ {
		if s1.Metrics[i-1].Name >= s1.Metrics[i].Name {
			t.Fatalf("metrics not sorted: %q >= %q", s1.Metrics[i-1].Name, s1.Metrics[i].Name)
		}
	}
	if v, ok := s1.Get("a/count"); !ok || v != 1 {
		t.Fatalf("Get(a/count) = %v, %v", v, ok)
	}
	if v, ok := s1.Get("lat/count"); !ok || v != 2 {
		t.Fatalf("Get(lat/count) = %v, %v", v, ok)
	}
	if v, ok := s1.Get("m/gauge"); !ok || v != 2.5 {
		t.Fatalf("Get(m/gauge) = %v, %v", v, ok)
	}
	if _, ok := s1.Get("missing"); ok {
		t.Fatal("Get(missing) should report absence")
	}

	var j1, j2, c1, c2 bytes.Buffer
	if err := s1.WriteJSON(&j1); err != nil {
		t.Fatal(err)
	}
	if err := s2.WriteJSON(&j2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1.Bytes(), j2.Bytes()) {
		t.Fatal("same registry state produced different JSON")
	}
	if err := s1.WriteCSV(&c1); err != nil {
		t.Fatal(err)
	}
	if err := s2.WriteCSV(&c2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c1.Bytes(), c2.Bytes()) {
		t.Fatal("same registry state produced different CSV")
	}
}

func TestCounterIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x")
	b := r.Counter("x")
	if a != b {
		t.Fatal("same name should return the same counter")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("aliased counters should share state")
	}
	if r.Histogram("h") != r.Histogram("h") {
		t.Fatal("same name should return the same histogram")
	}
}

func TestSamplerTicksOnVirtualClock(t *testing.T) {
	s := sim.New(1)
	sp := NewSampler(s, 10*time.Microsecond)
	v := 0.0
	sp.Track("v", func() float64 { v++; return v })
	sp.Start(sim.Time(100 * 1000)) // 100µs horizon
	s.Run()
	// Ticks at t=0,10µs,...,100µs inclusive.
	if sp.Len() != 11 {
		t.Fatalf("rows = %d, want 11", sp.Len())
	}
	at, row := sp.Row(10)
	if at != sim.Time(100*1000) || row[0] != 11 {
		t.Fatalf("last row = %v %v", at, row)
	}

	var b1 bytes.Buffer
	if err := sp.WriteCSV(&b1); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(b1.Bytes(), []byte("t_ns,v\n0,1\n")) {
		t.Fatalf("unexpected CSV head: %q", b1.String()[:40])
	}
}

func TestSamplerStop(t *testing.T) {
	s := sim.New(1)
	sp := NewSampler(s, 10*time.Microsecond)
	sp.Track("x", func() float64 { return 0 })
	sp.Start(sim.Time(1_000_000))
	s.RunFor(25 * time.Microsecond)
	sp.Stop()
	s.Run()
	if sp.Len() != 3 { // t=0, 10µs, 20µs
		t.Fatalf("rows after stop = %d, want 3", sp.Len())
	}
}

// The zero-allocation contract: armed instruments must not allocate on
// the hot path, so they can shadow every packet without perturbing the
// simulator's allocation profile.
func TestTelemetryZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x")
	if a := testing.AllocsPerRun(1000, c.Inc); a != 0 {
		t.Errorf("Counter.Inc: %.1f allocs/op", a)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("x")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}
