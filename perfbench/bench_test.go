package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"
)

// testShrink divides the workloads' row counts so the tests run quickly.
const testShrink = 20

// opened opens a shrunken workload, closed when the test ends.
func opened(t *testing.T, wl *workload, seed int64) *env {
	t.Helper()
	e, _, err := openEnv(wl, seed, testShrink, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := e.close(); err != nil {
			t.Error(err)
		}
	})
	return e
}

// prepared opens a shrunken workload, runs its warm-up pass and computes
// its references.
func prepared(t *testing.T, wl *workload, seed int64) *env {
	t.Helper()
	e := opened(t, wl, seed)
	if err := e.prepare(); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestSeededGeneration(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			a := prepared(t, wl, 7)
			b := prepared(t, wl, 7)
			rows := 0
			for i, qa := range a.qs {
				qb := b.qs[i]
				if qa.sql != qb.sql || qa.hint != qb.hint {
					t.Errorf("%s: same seed generated different queries", qa.label)
				}
				rows += len(qa.ref)
				if !reflect.DeepEqual(qa.ref, qb.ref) {
					t.Errorf("%s: same seed gave different reference rows (%d vs %d)", qa.label, len(qa.ref), len(qb.ref))
				}
				if !wl.served && !reflect.DeepEqual(a.first[qa], b.first[qb]) {
					t.Errorf("%s: same seed gave different counters:\n%v\n%v", qa.label, a.first[qa], b.first[qb])
				}
			}
			if rows == 0 {
				t.Errorf("no query returned rows")
			}
			c := prepared(t, wl, 8)
			if c.failed != 0 || c.attempted != len(c.qs) {
				t.Errorf("seed 8: %d of %d warm-up queries failed: %v", c.failed, c.attempted, c.firstErr)
			}
			if reflect.DeepEqual(a.qs[0].ref, c.qs[0].ref) {
				t.Errorf("seeds 7 and 8 gave identical results for %s", a.qs[0].label)
			}
		})
	}
}

func TestTailRule(t *testing.T) {
	samples := func(n int) []time.Duration {
		var s []time.Duration
		for i := 1; i <= n; i++ {
			s = append(s, time.Duration(i)*time.Millisecond)
		}
		return s
	}
	if _, _, ok := tail(samples(tailBeyond)); ok {
		t.Errorf("%d samples leave none to report beyond", tailBeyond)
	}
	for _, tc := range []struct {
		n    int
		want time.Duration
		pct  float64
	}{
		{11, 1 * time.Millisecond, 100.0 / 11},
		{21, 11 * time.Millisecond, 100.0 * 11 / 21},
		{100, 90 * time.Millisecond, 90},
		{1000, 990 * time.Millisecond, 99},
	} {
		v, pct, ok := tail(samples(tc.n))
		if !ok || v != tc.want || pct != tc.pct {
			t.Errorf("tail of %d samples = %v at p%v (ok %v), want %v at p%v", tc.n, v, pct, ok, tc.want, tc.pct)
		}
	}
	if got := median(samples(4)); got != 2500*time.Microsecond {
		t.Errorf("median of 1..4 ms = %v", got)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestNames(t *testing.T) {
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q uses characters outside [A-Za-z0-9_.-]", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, wl := range workloads {
		check(wl.name)
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		check(d.name)
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("%s: better = %q", d.name, d.better)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics the
// command prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var bj struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the command %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the command", i, w.Name, workloads[i].name)
		}
	}
	compare := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the command", kind, len(got), len(want))
		}
		for i, m := range got {
			d := want[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s %d: %+v in BENCHMARK.json, %+v in the command", kind, i, m, d)
			}
			if bounded && (m.Bound == nil || *m.Bound != d.bound) {
				t.Errorf("%s: bound %v in BENCHMARK.json, %v in the command", m.Name, m.Bound, d.bound)
			}
			if !bounded && m.Bound != nil {
				t.Errorf("%s: per-layer metrics carry no bound", m.Name)
			}
		}
	}
	compare("end_to_end", bj.EndToEnd, endToEnd, true)
	compare("per_layer", bj.PerLayer, perLayer, false)
}

// TestMeasureServed runs both measurement modes on the concurrent
// workload, two clients at once, and checks every metric is reported.
func TestMeasureServed(t *testing.T) {
	wl, err := workloadByName("served-skewed")
	if err != nil {
		t.Fatal(err)
	}
	for _, trace := range []int{0, 1} {
		e := opened(t, wl, 7)
		res, err := e.measure(options{workload: wl.name, seed: 7, seconds: 0.01, trace: trace, workdir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Errorf("trace %d: %d of %d queries failed: %v", trace, res.Failed, res.Attempted, e.firstErr)
		}
		want := perLayer
		if trace == 0 {
			// setup_s is added by run, outside measure.
			want = endToEnd[:len(endToEnd)-1]
		}
		for _, d := range want {
			if _, ok := res.Metrics[d.name]; !ok {
				t.Errorf("trace %d: metric %s missing", trace, d.name)
			}
		}
	}
}
