package tl

import (
	"testing"
	"unsafe"
)

// TestConnLayout pins the TL connection to the 640-byte Go allocation size
// class. A heap object over 512 bytes that holds pointers carries an
// 8-byte type header, so a Conn of 632 bytes fills the class and one byte
// more is rounded up to the 704-byte class.
func TestConnLayout(t *testing.T) {
	if got := unsafe.Sizeof(Conn{}); got > 632 {
		t.Errorf("Conn is %d bytes, want <= 632 (the 640-byte class less its header)", got)
	}
}
