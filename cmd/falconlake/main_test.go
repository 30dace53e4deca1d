package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestExitCodes covers the command's three exit statuses: 0 for a clean
// committed pair, 1 for a pair with findings (two files of different
// seeds) or an unreadable file, and 2 for bad usage.
func TestExitCodes(t *testing.T) {
	const root = "../../"
	for _, c := range []struct {
		args []string
		code int
		want string // in stdout for 0 and 1 with findings, else in stderr
	}{
		{[]string{"diff", root + "BENCH_pr60_before.jsonl", root + "BENCH_pr60_after.jsonl"}, 0, "0 findings"},
		{[]string{"diff", root + "BENCH_pr59_after.jsonl", root + "BENCH_pr60_after.jsonl"}, 1, "missing"},
		{[]string{"diff", root + "BENCH_none.jsonl", root + "BENCH_pr60_after.jsonl"}, 1, "falconlake: lake:"},
		{nil, 2, "usage:"},
		{[]string{"diff", root + "BENCH_pr60_before.jsonl"}, 2, "usage:"},
		{[]string{"judge", root + "BENCH_pr60_before.jsonl", root + "BENCH_pr60_after.jsonl"}, 2, "usage:"},
	} {
		var out, errOut bytes.Buffer
		code := run(c.args, &out, &errOut)
		text := errOut.String()
		if out.Len() > 0 {
			text = out.String()
		}
		if code != c.code || !strings.Contains(text, c.want) {
			t.Errorf("%v: exit %d with %q, want exit %d with %q", c.args, code, text, c.code, c.want)
		}
	}
}
