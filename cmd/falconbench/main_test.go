package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestShardParRejectsSharedStateFigures pins that -shardpar refuses any
// selection that reaches beyond figScale, before a single figure runs:
// the other figures accumulate into state shared across partitions, which
// concurrent partitions would race on.
func TestShardParRejectsSharedStateFigures(t *testing.T) {
	for _, sel := range []string{"fig10|figScale", "fig10", "fig.*"} {
		var out, errOut bytes.Buffer
		code := run([]string{"-quick", "-shards", "2", "-shardpar", "-run", sel}, &out, &errOut)
		if code != 2 {
			t.Fatalf("-shardpar -run %q: exit %d, want 2 (stderr: %s)", sel, code, errOut.String())
		}
		if out.Len() != 0 {
			t.Fatalf("-shardpar -run %q ran something:\n%s", sel, out.String())
		}
		if !strings.Contains(errOut.String(), "figScale only") {
			t.Fatalf("-shardpar -run %q: unexpected message %q", sel, errOut.String())
		}
	}
}

// TestShardParRunsFigScale checks the accepted selection: with no -run,
// -shardpar defaults to figScale and runs it.
func TestShardParRunsFigScale(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"-quick", "-shards", "2", "-shardpar"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "figScale: fabric scaling") || strings.Contains(out.String(), "Figure ") {
		t.Fatalf("want figScale alone, got:\n%s", out.String())
	}
}

// TestBadInvocations covers the other exit-2 paths.
func TestBadInvocations(t *testing.T) {
	for _, args := range [][]string{
		{"-shards", "0"},
		{"-routing", "bogus"},
		{"-run", "("},
		{"-nosuchflag"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 {
			t.Fatalf("%v: exit %d, want 2", args, code)
		}
	}
}
