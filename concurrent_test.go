package hybridwh

import (
	"context"
	"errors"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"hybridwh/internal/core"
	"hybridwh/internal/datagen"
	"hybridwh/internal/metrics"
	"hybridwh/internal/sched"
)

// concurrentData is small enough that a 64-query storm stays fast, large
// enough that a scan query's build side is a meaningful slice of the
// global budget.
func concurrentData() datagen.Data {
	return datagen.Data{TRows: 6000, LRows: 40_000, Keys: 400, Seed: 7, DateDays: 30, Groups: 20}
}

func sortedRows(res *Result) []string {
	out := make([]string, 0, len(res.Rows))
	for _, r := range res.Rows {
		out = append(out, r.String())
	}
	sort.Strings(out)
	return out
}

func rowsEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestConcurrentMixedWorkloadMatchesSerial runs the acceptance scenario: a
// 64-client mixed workload (selective point lookups and heavier scans)
// against a global memory budget far below the sum of the queries' build
// sides. Every result must equal its serial execution, the governor's peak
// reservation must stay within the budget, and everything must be released
// at the end.
func TestConcurrentMixedWorkloadMatchesSerial(t *testing.T) {
	const budget = int64(4 << 20)
	w, err := Open(Config{
		DBWorkers: 2, JENWorkers: 2, BlockSize: 64 << 10, Seed: 3,
		MemBudgetBytes: budget, MaxConcurrent: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.LoadPaperData(concurrentData()); err != nil {
		t.Fatal(err)
	}

	scanWL, err := datagen.Solve(w.Data(), datagen.Selectivities{SigmaT: 0.1, SigmaL: 0.4, ST: 0.2, SL: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	pointWL, err := datagen.Solve(w.Data(), datagen.Selectivities{SigmaT: 0.01, SigmaL: 0.2, ST: 0.5, SL: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	type mix struct {
		sql  string
		opts []Option
	}
	mixes := []mix{
		{PaperQuerySQL(scanWL), []Option{WithAlgorithm(core.Repartition), WithCardHint(ExpectedLPrimeRows(scanWL))}},
		{PaperQuerySQL(pointWL), []Option{WithAlgorithm(core.DBSideBloom), WithCardHint(ExpectedLPrimeRows(pointWL))}},
	}

	// Serial baselines (still via the scheduler, but one at a time).
	want := make([][]string, len(mixes))
	for i, m := range mixes {
		res, err := w.Query(m.sql, m.opts...)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) == 0 {
			t.Fatalf("mix %d: empty serial result; fixture too sparse", i)
		}
		want[i] = sortedRows(res)
	}

	// The 64-client storm: three scans to one point lookup.
	const clients = 64
	handles := make([]*QueryHandle, clients)
	kinds := make([]int, clients)
	for c := 0; c < clients; c++ {
		k := 0
		if c%4 == 3 {
			k = 1
		}
		kinds[c] = k
		h, err := w.Submit(context.Background(), mixes[k].sql, mixes[k].opts...)
		if err != nil {
			t.Fatal(err)
		}
		handles[c] = h
	}
	for c, h := range handles {
		res, err := h.Wait()
		if err != nil {
			t.Fatalf("client %d: %v", c, err)
		}
		if got := sortedRows(res); !rowsEqual(got, want[kinds[c]]) {
			t.Fatalf("client %d (mix %d): concurrent rows differ from serial\n got %v\nwant %v",
				c, kinds[c], got, want[kinds[c]])
		}
	}

	rec := w.Recorder()
	if peak := rec.GaugePeak(metrics.MemReservedBytes); peak > budget {
		t.Errorf("peak reserved %d exceeded the %d budget", peak, budget)
	} else if peak <= 0 {
		t.Error("peak reserved never rose; admission control did not account anything")
	}
	if got := w.Scheduler().Governor().Reserved(); got != 0 {
		t.Errorf("governor still holds %d bytes after all queries finished", got)
	}
	if got := rec.Get(metrics.SchedCompleted); got != clients+int64(len(mixes)) {
		t.Errorf("completed = %d, want %d", got, clients+len(mixes))
	}
	// The scenario's premise: the budget really was smaller than the sum of
	// the build sides (JoinBuildTuples counts every hash-table insert across
	// all queries; ~96 bytes per 3-column wire row).
	if sum := rec.Get(metrics.JoinBuildTuples) * 96; sum <= budget {
		t.Errorf("aggregate build side %d B did not exceed the %d B budget; scenario too small", sum, budget)
	}
	t.Logf("spill activity: evictions=%d repartitions=%d build-rows=%d overshoot-peak=%d",
		rec.Get(metrics.SpillEvictions), rec.Get(metrics.SpillRepartitions),
		rec.Get(metrics.SpillBuildRows), rec.GaugePeak(metrics.MemOvershootBytes))
}

// TestConcurrentAdviseSharesSample races the first advise on a fresh
// warehouse: 16 goroutines Submit or Explain unhinted queries at once, and
// the advisor's sample of L must be drawn exactly once.
func TestConcurrentAdviseSharesSample(t *testing.T) {
	w, err := Open(Config{
		DBWorkers: 2, JENWorkers: 2, BlockSize: 64 << 10, Seed: 3,
		MemBudgetBytes: 4 << 20, MaxConcurrent: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.LoadPaperData(concurrentData()); err != nil {
		t.Fatal(err)
	}
	wl, err := datagen.Solve(w.Data(), datagen.Selectivities{SigmaT: 0.1, SigmaL: 0.4, ST: 0.2, SL: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	sql := PaperQuerySQL(wl)

	const clients = 16
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			if c%2 == 1 {
				_, err := w.Explain(sql)
				errs <- err
				return
			}
			h, err := w.Submit(context.Background(), sql)
			if err == nil {
				_, err = h.Wait()
			}
			errs <- err
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	w.sampleMu.Lock()
	draws := w.sampleDraws
	w.sampleMu.Unlock()
	if draws != 1 {
		t.Errorf("%d sample draws under concurrent advise, want 1", draws)
	}
}

// TestConcurrentKillReleasesEverything submits 8 in-flight scans, kills one
// mid-flight, and requires: the 7 survivors return serial-identical rows,
// the killed query's grant and charges are fully released, and no worker
// goroutines outlive the warehouse.
func TestConcurrentKillReleasesEverything(t *testing.T) {
	baseline := runtime.NumGoroutine()
	w, err := Open(Config{
		DBWorkers: 2, JENWorkers: 2, BlockSize: 64 << 10, Seed: 3,
		MemBudgetBytes: 32 << 20, MaxConcurrent: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.LoadPaperData(concurrentData()); err != nil {
		t.Fatal(err)
	}
	wl, err := datagen.Solve(w.Data(), datagen.Selectivities{SigmaT: 0.1, SigmaL: 0.4, ST: 0.2, SL: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	sql := PaperQuerySQL(wl)
	opts := []Option{WithAlgorithm(core.Repartition), WithCardHint(ExpectedLPrimeRows(wl))}

	serial, err := w.Query(sql, opts...)
	if err != nil {
		t.Fatal(err)
	}
	want := sortedRows(serial)

	const inflight = 8
	handles := make([]*QueryHandle, inflight)
	for i := range handles {
		h, err := w.Submit(context.Background(), sql, opts...)
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}
	victim := handles[3]

	// Kill the victim as soon as the process list shows it running (it may
	// briefly be queued behind admission bookkeeping).
	deadline := time.Now().Add(10 * time.Second)
	for {
		var st sched.State
		for _, p := range w.Processes() {
			if p.ID == victim.ID() {
				st = p.State
			}
		}
		if st == sched.StateRunning {
			break
		}
		if st != sched.StateQueued {
			t.Fatalf("victim reached state %v before the kill", st)
		}
		if time.Now().After(deadline) {
			t.Fatalf("victim %d never started; processes: %+v", victim.ID(), w.Processes())
		}
		time.Sleep(time.Millisecond)
	}
	if err := w.Kill(victim.ID()); err != nil {
		t.Fatal(err)
	}

	killed := 0
	for i, h := range handles {
		res, err := h.Wait()
		if h == victim {
			if !errors.Is(err, sched.ErrKilled) {
				t.Fatalf("victim error = %v, want sched.ErrKilled", err)
			}
			killed++
			continue
		}
		if err != nil {
			t.Fatalf("survivor %d: %v", i, err)
		}
		if got := sortedRows(res); !rowsEqual(got, want) {
			t.Fatalf("survivor %d: rows differ from serial after the kill", i)
		}
	}
	if killed != 1 {
		t.Fatalf("killed %d queries, want 1", killed)
	}
	if got := w.Scheduler().Governor().Reserved(); got != 0 {
		t.Fatalf("killed query leaked %d reserved bytes", got)
	}
	if got := w.Recorder().Get(metrics.SchedKilled); got != 1 {
		t.Errorf("killed counter = %d, want 1", got)
	}

	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Every worker goroutine (engine programs, routers, scheduler runners)
	// must be gone once the warehouse closes.
	leakDeadline := time.Now().Add(10 * time.Second)
	n := runtime.NumGoroutine()
	for n > baseline && time.Now().Before(leakDeadline) {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > baseline {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		t.Fatalf("goroutine leak after kill: %d live, baseline %d; stacks:\n%s", n, baseline, buf)
	}
}
