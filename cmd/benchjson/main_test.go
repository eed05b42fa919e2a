package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func parseString(t *testing.T, in string) (*report, error) {
	t.Helper()
	return parse(bufio.NewScanner(strings.NewReader(in)))
}

// writeBaseline records results as a report file and returns its path.
func writeBaseline(t *testing.T, results ...result) string {
	t.Helper()
	buf, err := json.Marshal(report{Results: results})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "base.json")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestParseStripsGOMAXPROCSSuffix(t *testing.T) {
	rep, err := parseString(t, `
pkg: hybridwh/internal/core
BenchmarkScanFilterJoin/scale=10/batch-8   	      10	   4196958 ns/op	    309748 rows/s
BenchmarkScanFilterJoin/scale=10/batch-mt  	      10	   3196958 ns/op	    409748 rows/s
BenchmarkScanFilterJoin/scale=10/batch-mt-2	      10	   3196958 ns/op	    409748 rows/s
`)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"BenchmarkScanFilterJoin/scale=10/batch",
		"BenchmarkScanFilterJoin/scale=10/batch-mt",
		"BenchmarkScanFilterJoin/scale=10/batch-mt",
	}
	if len(rep.Results) != len(want) {
		t.Fatalf("%d results, want %d", len(rep.Results), len(want))
	}
	for i, w := range want {
		if got := rep.Results[i].Name; got != w {
			t.Errorf("result %d name %q, want %q", i, got, w)
		}
	}
	if rep.Pkg != "hybridwh/internal/core" {
		t.Errorf("pkg %q", rep.Pkg)
	}
}

func TestParseMetricPairs(t *testing.T) {
	rep, err := parseString(t, "BenchmarkSkewedJoin/skew=on-2  3  419695899 ns/op  309748 rows/s  1.5 balance  2048 B/op\n")
	if err != nil {
		t.Fatal(err)
	}
	r := rep.Results[0]
	if r.Iters != 3 || r.NsPerOp != 419695899 {
		t.Errorf("iters %d ns/op %v", r.Iters, r.NsPerOp)
	}
	want := map[string]float64{"rows/s": 309748, "balance": 1.5, "B/op": 2048}
	if len(r.Metrics) != len(want) {
		t.Fatalf("metrics %v, want %v", r.Metrics, want)
	}
	for k, v := range want {
		if r.Metrics[k] != v {
			t.Errorf("metric %s = %v, want %v", k, r.Metrics[k], v)
		}
	}
	if _, err := parseString(t, "PASS\nok  \thybridwh/internal/core\t0.1s\n"); err == nil {
		t.Error("input without result lines: want error")
	}
}

func TestCompareFlagsRegression(t *testing.T) {
	base := writeBaseline(t,
		result{Name: "BenchmarkA", Metrics: map[string]float64{"rows/s": 1000}},
		result{Name: "BenchmarkB", Metrics: map[string]float64{"rows/s": 1000}},
	)
	rep := &report{Results: []result{
		{Name: "BenchmarkA", Metrics: map[string]float64{"rows/s": 900}},
		{Name: "BenchmarkB", Metrics: map[string]float64{"rows/s": 500}},
	}}
	err := compareBaseline(rep, base, 0.85, "rows/s")
	if err == nil || !strings.Contains(err.Error(), "BenchmarkB") || strings.Contains(err.Error(), "BenchmarkA") {
		t.Fatalf("err = %v, want a regression naming BenchmarkB only", err)
	}
	rep.Results[1].Metrics["rows/s"] = 860
	if err := compareBaseline(rep, base, 0.85, "rows/s"); err != nil {
		t.Fatalf("within tolerance: %v", err)
	}
}

func TestCompareNeedsCommonBenchmarks(t *testing.T) {
	base := writeBaseline(t, result{Name: "BenchmarkA", NsPerOp: 100})
	rep := &report{Results: []result{{Name: "BenchmarkOther", NsPerOp: 100}}}
	err := compareBaseline(rep, base, 0.85, "rows/s")
	if err == nil || !strings.Contains(err.Error(), "no common benchmarks") {
		t.Fatalf("err = %v, want the no-common-benchmarks error", err)
	}
}

// TestParseRejectsFailedBenchmarks: a failing benchmark prints no result
// line, and -compare skips baseline entries missing from stdin, so only
// parse can notice the failure.
func TestParseRejectsFailedBenchmarks(t *testing.T) {
	const pass = "BenchmarkStarJoin/cascade=true-2  \t10\t  1234567 ns/op\t  99999 rows/s\n"
	for name, tail := range map[string]string{
		"fail block": "--- FAIL: BenchmarkScanFilterJoin/scale=10/batch\n    bench_test.go:50: boom\n",
		"fail line":  "FAIL\nexit status 1\n",
		"fail pkg":   "FAIL\thybridwh/internal/core\t1.234s\n",
		"panic":      "panic: runtime error: index out of range [3] with length 3\n",
	} {
		if _, err := parseString(t, pass+tail); err == nil {
			t.Errorf("%s: parse accepted a failed run", name)
		}
	}
	base := writeBaseline(t, result{Name: "BenchmarkStarJoin/cascade=true", Metrics: map[string]float64{"rows/s": 99999}})
	rep, err := parseString(t, pass+"PASS\nok  \thybridwh/internal/core\t1.234s\n")
	if err != nil {
		t.Fatal(err)
	}
	if err := compareBaseline(rep, base, 0.85, "rows/s"); err != nil {
		t.Fatalf("passing run: %v", err)
	}
}
