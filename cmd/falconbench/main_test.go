package main

import (
	"bytes"
	"testing"
)

// TestBadInvocations covers the other exit-2 paths.
func TestBadInvocations(t *testing.T) {
	for _, args := range [][]string{
		{"-run", "("},
		{"-nosuchflag"},
		{"-json", "x"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 {
			t.Fatalf("%v: exit %d, want 2", args, code)
		}
	}
}
