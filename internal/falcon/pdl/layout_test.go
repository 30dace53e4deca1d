package pdl

import (
	"testing"
	"unsafe"
)

// TestScoreboardLayout pins the sizes that every connection pays for: a
// scoreboard slot (a 128-packet window keeps 128 of them per space), which
// holds only the packet pointer, transmit time, retransmission count and
// flow, and the Conn itself, which keeps its two sending and two receiving
// sequence spaces inline. A heap object over 512 bytes that holds pointers
// carries an 8-byte type header, so a Conn of 1 016 bytes fills the
// 1 024-byte Go allocation size class and one byte more is rounded up to
// the 1 152-byte class.
func TestScoreboardLayout(t *testing.T) {
	if got := unsafe.Sizeof(txPacket{}); got > 24 {
		t.Errorf("txPacket is %d bytes, want <= 24", got)
	}
	if got := unsafe.Sizeof(Conn{}); got > 1016 {
		t.Errorf("Conn is %d bytes, want <= 1016 (the 1 024-byte class less its header)", got)
	}
}
