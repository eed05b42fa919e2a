// Command perfbench is the hybrid warehouse's end-to-end benchmark. It runs
// one named workload against a warehouse generated from a seed, drives it
// only through the public hybridwh API in a closed loop, checks every
// result row against a reference computed by an independent path, and
// prints its metrics as one JSON object on the last line of standard
// output.
//
// With -trace 0 the metrics are the end-to-end ones (latency, throughput,
// bytes per query, memory, set-up time). With -trace 1 the run measures an
// untraced and a traced phase, prints the tracing overhead, and reports the
// per-layer metrics: spans recorded around the query-path calls and around
// replays of each query's inner layers on the same loaded data.
//
// Build and run it from the repository root with perfbench/run.py:
//
//	python3 perfbench/run.py --workload paper-mix --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// setupRuns is how many times a run sets the warehouse up (each in a fresh
// process) to report the median set-up time.
const setupRuns = 5

type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int
	workdir   string
	setupOnly bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload name: paper-mix, star-snowflake or served-skewed")
	flag.Int64Var(&o.seed, "seed", 1, "seed for data generation and block placement")
	flag.Float64Var(&o.seconds, "seconds", 15, "length of the timed phase in seconds")
	flag.IntVar(&o.trace, "trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.StringVar(&o.workdir, "workdir", ".bench_build", "directory for spill files and the span dump")
	flag.BoolVar(&o.setupOnly, "setup-only", false, "set up once, print the set-up time and exit")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// result is the last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(o options) error {
	wl, err := workloadByName(o.workload)
	if err != nil {
		return err
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", o.trace)
	}
	if o.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return err
	}
	spillDir, err := os.MkdirTemp(o.workdir, "spill-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(spillDir)

	if o.setupOnly {
		env, setup, err := openEnv(wl, o.seed, 1, spillDir)
		if err != nil {
			return err
		}
		fmt.Printf("setup_s %v\n", setup.Seconds())
		return env.close()
	}

	var setups []float64
	if o.trace == 0 {
		// Extra set-ups run in child processes first, so this process's
		// peak RSS covers one set-up only.
		for i := 1; i < setupRuns; i++ {
			s, err := childSetup(o)
			if err != nil {
				return err
			}
			setups = append(setups, s)
		}
	}
	env, setup, err := openEnv(wl, o.seed, 1, spillDir)
	if err != nil {
		return err
	}
	setups = append(setups, setup.Seconds())
	res, runErr := env.measure(o)
	if err := env.close(); err != nil && runErr == nil {
		runErr = err
	}
	if runErr != nil {
		return runErr
	}
	if o.trace == 0 {
		res.Metrics["setup_s"] = metricValue{medianFloat(setups), "s"}
		fmt.Printf("setup_s runs: %v\n", setups)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%d of %d queries failed or returned wrong rows", res.Failed, res.Attempted)
	}
	return nil
}

// childSetup sets the workload up in a fresh process and returns its
// set-up time in seconds.
func childSetup(o options) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "-workload", o.workload, "-seed", strconv.FormatInt(o.seed, 10),
		"-workdir", o.workdir, "-setup-only")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("set-up child: %w", err)
	}
	fields := strings.Fields(string(out))
	if len(fields) != 2 || fields[0] != "setup_s" {
		return 0, fmt.Errorf("set-up child printed %q", out)
	}
	return strconv.ParseFloat(fields[1], 64)
}

// spanDumpPath is where a traced run writes its spans.
func spanDumpPath(o options) string {
	return filepath.Join(o.workdir, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
}

func secondsDuration(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
