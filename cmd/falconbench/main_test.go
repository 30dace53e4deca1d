package main

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestShardParRejectsSharedStateFigures pins that -shards N (N > 1), which
// runs partitions in parallel, refuses any selection that reaches beyond
// figScale, before a single figure runs: the other figures accumulate into
// state shared across partitions, which concurrent partitions would race
// on.
func TestShardParRejectsSharedStateFigures(t *testing.T) {
	for _, sel := range []string{"fig10|figScale", "fig10", "fig.*"} {
		var out, errOut bytes.Buffer
		code := run([]string{"-quick", "-shards", "2", "-run", sel}, &out, &errOut)
		if code != 2 {
			t.Fatalf("-shards 2 -run %q: exit %d, want 2 (stderr: %s)", sel, code, errOut.String())
		}
		if out.Len() != 0 {
			t.Fatalf("-shards 2 -run %q ran something:\n%s", sel, out.String())
		}
		if !strings.Contains(errOut.String(), "figScale only") {
			t.Fatalf("-shards 2 -run %q: unexpected message %q", sel, errOut.String())
		}
	}
}

// TestShardParRunsFigScale checks the accepted selection: with no -run,
// -shards 4 defaults to figScale, runs it alone, and prints the committed
// four-partition table.
func TestShardParRunsFigScale(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"-quick", "-shards", "4"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	want, err := os.ReadFile("testdata/figscale_shards4.golden")
	if err != nil {
		t.Fatal(err)
	}
	// The golden strips the "(figScale in <t>, <n> events)" line, as make
	// check's sed '/ in /d' does.
	got := regexp.MustCompile(`(?m)^.* in .*\n`).ReplaceAllString(out.String(), "")
	if got != string(want) {
		t.Fatalf("-quick -shards 4 output differs from testdata/figscale_shards4.golden:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestBadInvocations covers the other exit-2 paths.
func TestBadInvocations(t *testing.T) {
	for _, args := range [][]string{
		{"-shards", "0"},
		{"-routing", "bogus"},
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
