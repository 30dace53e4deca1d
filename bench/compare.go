package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// record is one line of an -out file: a run's result with what produced it.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

func appendRecord(path string, r record) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readRecords returns, per workload and metric, the values of the untraced
// runs recorded in path.
func readRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Trace != 0 {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Result.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out, sc.Err()
}

// compareFiles prints, per workload and end-to-end metric, the median of
// each file's runs, how much worse b is than a as a share of a, and the
// metric's bound. It returns 1 when any metric is worse by more than its
// bound, 0 otherwise.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readRecords(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	b, err := readRecords(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	return compareSets(a, b, stdout)
}

func compareSets(a, b map[string]map[string][]float64, stdout io.Writer) int {
	status := 0
	fmt.Fprintf(stdout, "%-13s %-20s %5s %14s %14s %9s %7s\n", "workload", "metric", "runs", "a (median)", "b (median)", "worse by", "bound")
	for _, sp := range specs {
		for _, d := range endToEnd {
			va, vb := a[sp.name][d.Name], b[sp.name][d.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma
			if d.Better == "higher" && worse != 0 {
				worse = -worse
			}
			verdict := ""
			if worse > d.Bound {
				verdict = "  EXCEEDS BOUND"
				status = 1
			}
			fmt.Fprintf(stdout, "%-13s %-20s %2d/%-2d %14.6g %14.6g %+8.2f%% %6.0f%%%s\n",
				sp.name, d.Name, len(va), len(vb), ma, mb, worse*100, d.Bound*100, verdict)
		}
	}
	return status
}
