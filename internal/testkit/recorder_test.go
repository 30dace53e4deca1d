package testkit

import (
	"fmt"
	"strings"
	"testing"

	"falcon/internal/falcon/wire"
	"falcon/internal/netsim"
	"falcon/internal/sim"
)

// An invariant violation must print the recent event history, not only
// the failing assertion.
func TestViolationDumpsFlightRecorder(t *testing.T) {
	var msgs []string
	sc := Scenario{
		Name:              "rec-dump",
		Seed:              42,
		Workload:          WorkloadPush,
		Ops:               50,
		StrictOutstanding: 2, // below the real window: must trip
		FailFunc: func(format string, args ...any) {
			msgs = append(msgs, fmt.Sprintf(format, args...))
		},
	}
	Run(sc)
	if len(msgs) == 0 {
		t.Fatal("seeded violation not detected")
	}
	if !strings.Contains(msgs[0], "flight recorder") {
		t.Fatalf("violation message lacks the flight-recorder dump:\n%s", msgs[0])
	}
	// The dump must contain actual records (sends at minimum).
	if !strings.Contains(msgs[0], "psn=") {
		t.Fatalf("flight-recorder dump carries no records:\n%s", msgs[0])
	}
}

// Without a FailFunc the wrapped failure path must still panic — a
// violated invariant can never be silently ignored — and the panic text
// must carry the recorder dump.
func TestViolationPanicCarriesDump(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("violation did not panic")
		}
		msg := fmt.Sprint(r)
		if !strings.Contains(msg, "invariant violation") || !strings.Contains(msg, "flight recorder") {
			t.Fatalf("panic lacks violation context or recorder dump: %s", msg)
		}
	}()
	Run(Scenario{
		Name:              "rec-panic",
		Seed:              42,
		Workload:          WorkloadPush,
		Ops:               50,
		StrictOutstanding: 2,
	})
}

// A ring that has seen no records says so rather than printing a bare
// header.
func TestFlightRingEmptyDump(t *testing.T) {
	var r flightRing
	if got := r.String(); got != "flight recorder: empty\n" {
		t.Fatalf("empty dump = %q", got)
	}
}

// The flight ring keeps the last flightDepth records, renders them
// oldest-first, and adds without allocating.
func TestFlightRingWrap(t *testing.T) {
	var r flightRing
	for i := 0; i < flightDepth+10; i++ {
		r.add(flightRecord{at: sim.Time(i), tag: tagSend, psn: uint32(i)})
	}
	lines := strings.Split(strings.TrimSuffix(r.String(), "\n"), "\n")
	if want := fmt.Sprintf("flight recorder (last %d of %d records):", flightDepth, flightDepth+10); lines[0] != want {
		t.Fatalf("dump header = %q, want %q", lines[0], want)
	}
	if len(lines) != 1+flightDepth {
		t.Fatalf("dump has %d records, want %d", len(lines)-1, flightDepth)
	}
	for i, line := range lines[1:] {
		if want := fmt.Sprintf("psn=%-8d", 10+i); !strings.Contains(line, want) {
			t.Fatalf("record %d = %q, want %s (oldest-first)", i, line, want)
		}
	}
	if a := testing.AllocsPerRun(1000, func() { r.add(flightRecord{tag: tagSend}) }); a != 0 {
		t.Errorf("flightRing.add: %.1f allocs/op", a)
	}
}

// A frame tap records the wire packet's identity and the frame size, and
// only the size for a frame that carries no Falcon packet.
func TestFlightRingTapFrame(t *testing.T) {
	ps := &probeSet{s: sim.New(1), h: NewTraceHasher()}
	p := &wire.Packet{Type: wire.TypeAck, ConnID: 9, PSN: 42, RSN: 7}
	ps.TapFrame(&netsim.Frame{Payload: p, Size: 64})
	ps.TapFrame(&netsim.Frame{Payload: "opaque", Size: 128})
	got := ps.ring.recs[:ps.ring.total]
	if r := got[0]; r.tag != tagFrame || r.typ != uint8(wire.TypeAck) || r.conn != 9 || r.psn != 42 || r.rsn != 7 || r.aux != 64 {
		t.Fatalf("packet frame record = %+v", r)
	}
	if r := got[1]; r.conn != 0 || r.psn != 0 || r.aux != 128 {
		t.Fatalf("opaque frame record = %+v", r)
	}
	if ps.h.Records() != 2 {
		t.Fatalf("hasher folded %d frame records, want 2", ps.h.Records())
	}
}
