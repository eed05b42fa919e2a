package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	hybridwh "hybridwh"
	"hybridwh/internal/cluster"
	"hybridwh/internal/core"
	"hybridwh/internal/costmodel"
	"hybridwh/internal/metrics"
	"hybridwh/internal/netsim"
	"hybridwh/internal/types"
)

// minSamples keeps a timed phase going past its deadline until the median
// and the tail rule both have samples to work with.
const minSamples = 2*tailBeyond + 1

// Counter keys read after each query (serial workloads, where every query
// resets the warehouse's counters) or as whole-phase deltas (served, where
// the counters are shared by every query in flight).
const (
	keyCross    = "bus.cross.bytes"
	keyShuffle  = "bus.intra_hdfs.bytes"
	keyIntraDB  = "bus.intra_db.bytes"
	keyMessages = "bus.messages"
	// keyBalance carries a serial query's shuffle balance ratio, scaled by
	// balanceScale to fit the integer counters.
	keyBalance   = "shuffle.balance"
	balanceScale = 1e6
)

var recorderKeys = []string{
	metrics.JENShuffleTuples, metrics.DBSentTuples, metrics.HDFSSentTuples,
	metrics.SpillBuildRows, metrics.SpillProbeRows, metrics.SpillEvictions,
	metrics.AdaptDecisions, metrics.AdaptSwitches, metrics.SkewHotKeys,
}

// deterministicKeys must repeat exactly for every execution of a query on
// the serial workloads; a change is reported as a finding.
var deterministicKeys = []string{
	keyCross, keyShuffle, metrics.JENShuffleTuples, metrics.DBSentTuples, metrics.HDFSSentTuples,
}

// env is a loaded warehouse with its workload's queries.
type env struct {
	wl  *workload
	w   *hybridwh.Warehouse
	qs  []*query
	rec *metrics.Recorder
	bus *netsim.Counters

	mu        sync.Mutex
	attempted int
	failed    int
	firstErr  error
	first     map[*query]map[string]int64 // counters of each query's first execution
	drift     map[string]string           // "query counter" -> first and latest values
}

// outcome is one executed query.
type outcome struct {
	rows []types.Row
	lat  time.Duration
	alg  core.Algorithm
	// counters are read right after a serial query returns, before
	// anything else can reset them; nil on served workloads.
	counters map[string]int64
}

// phaseStats summarises one timed phase.
type phaseStats struct {
	lats      []time.Duration // correct queries only
	wall      time.Duration
	completed int
	totals    map[string]int64
	balance   []float64 // per-query shuffle balance (serial workloads)
}

func openEnv(wl *workload, seed, shrink int64, spillDir string) (*env, time.Duration, error) {
	t0 := time.Now()
	w, err := wl.open(seed, shrink, spillDir)
	if err != nil {
		return nil, 0, fmt.Errorf("set up %s: %w", wl.name, err)
	}
	setup := time.Since(t0)
	qs, err := wl.queries(w)
	if err != nil {
		return nil, 0, closeAfter(w, err)
	}
	return &env{
		wl: wl, w: w, qs: qs,
		rec:   w.Recorder(),
		bus:   w.Engine().Bus().Counters(),
		first: map[*query]map[string]int64{},
		drift: map[string]string{},
	}, setup, nil
}

func (e *env) close() error { return e.w.Close() }

// exec runs one query through the path under test: Query for serial
// workloads, Submit then Wait (queueing included) for served ones.
func (e *env) exec(q *query) (*outcome, error) {
	t0 := time.Now()
	var res *hybridwh.Result
	var err error
	if e.wl.served {
		var h *hybridwh.QueryHandle
		h, err = e.w.Submit(context.Background(), q.sql, q.options()...)
		if err == nil {
			res, err = h.Wait()
		}
	} else {
		res, err = e.w.Query(q.sql, q.options()...)
	}
	lat := time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", q.label, err)
	}
	return e.outcome(res.Rows, lat, res.Algorithm), nil
}

func (e *env) outcome(rows []types.Row, lat time.Duration, alg core.Algorithm) *outcome {
	out := &outcome{rows: rows, lat: lat, alg: alg}
	if !e.wl.served {
		out.counters = e.totals()
		if b := e.rec.BalanceRatio(metrics.JENRecvTuples); b > 0 {
			out.counters[keyBalance] = int64(b * balanceScale)
		}
	}
	return out
}

// prepare runs the warm-up pass, one execution of each distinct query
// through the path under test, computes every query's reference rows, and
// checks the warm-up results against them.
func (e *env) prepare() error {
	warm := &phaseStats{totals: map[string]int64{}}
	for _, q := range e.qs {
		out, err := e.exec(q)
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		q.alg = out.alg
		if err := computeReference(e.w, q); err != nil {
			return err
		}
		e.note(warm, q, out, nil)
	}
	return nil
}

// totals reads the counters this benchmark reports per query.
func (e *env) totals() map[string]int64 {
	t := map[string]int64{
		keyCross:   e.bus.Bytes(cluster.Cross),
		keyShuffle: e.bus.Bytes(cluster.IntraHDFS),
		keyIntraDB: e.bus.Bytes(cluster.IntraDB),
		keyMessages: e.bus.Messages(cluster.Cross) + e.bus.Messages(cluster.IntraHDFS) +
			e.bus.Messages(cluster.IntraDB),
	}
	for _, k := range recorderKeys {
		t[k] = e.rec.Get(k)
	}
	return t
}

// note records one execution: errors and wrong rows count as failed;
// correct ones add their latency and, on serial workloads, their counters.
func (e *env) note(ps *phaseStats, q *query, out *outcome, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.attempted++
	if err == nil && !sameRows(out.rows, q.ref) {
		err = fmt.Errorf("%s: %d rows differ from the reference's %d", q.label, len(out.rows), len(q.ref))
	}
	if err != nil {
		e.failed++
		if e.firstErr == nil {
			e.firstErr = err
		}
		return
	}
	ps.lats = append(ps.lats, out.lat)
	ps.completed++
	if e.wl.served {
		return
	}
	t := out.counters
	for k, v := range t {
		ps.totals[k] += v
	}
	if b, ok := t[keyBalance]; ok {
		ps.balance = append(ps.balance, float64(b)/balanceScale)
	}
	first := e.first[q]
	if first == nil {
		e.first[q] = t
		return
	}
	for _, k := range deterministicKeys {
		if t[k] != first[k] {
			e.drift[q.label+" "+k] = fmt.Sprintf("%d on the first run, %d on the latest", first[k], t[k])
		}
	}
}

// phase replays the workload's queries in a closed loop from every
// client until d has passed; client c starts its rotation at query
// c·len(qs)/clients.
func (e *env) phase(d time.Duration, one func(q *query, qid int) (*outcome, error)) *phaseStats {
	ps := &phaseStats{totals: map[string]int64{}}
	var before map[string]int64
	if e.wl.served {
		before = e.totals()
	}
	var wg sync.WaitGroup
	var qid, done atomic.Int64
	start := time.Now()
	n := len(e.qs)
	for c := 0; c < e.wl.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			off := c * n / e.wl.clients
			for i := 0; ; i++ {
				q := e.qs[(off+i)%n]
				out, err := one(q, int(qid.Add(1)))
				e.note(ps, q, out, err)
				done.Add(1)
				// A lone client stops on a rotation boundary, so its mix
				// is exact; several clients stop at the deadline, so none
				// runs alone, uncontended, at the end of the phase.
				boundary := e.wl.clients > 1 || (i+1)%n == 0
				if boundary && time.Since(start) >= d && done.Load() >= minSamples {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	ps.wall = time.Since(start)
	if e.wl.served {
		after := e.totals()
		for k, v := range after {
			ps.totals[k] = v - before[k]
		}
	}
	return ps
}

// perQuery divides a phase total by its completed queries.
func (ps *phaseStats) perQuery(key string) float64 {
	if ps.completed == 0 {
		return 0
	}
	return float64(ps.totals[key]) / float64(ps.completed)
}

// measure runs the benchmark proper: warm-up and references, then either
// the untraced timed phase (trace 0) or the untraced and traced phases
// with layer replays (trace 1).
func (e *env) measure(o options) (*result, error) {
	if err := e.prepare(); err != nil {
		return nil, err
	}
	if err := e.describe(); err != nil {
		return nil, err
	}
	// Start timing from a collected heap, not the warm-up's garbage.
	runtime.GC()
	var m map[string]metricValue
	if o.trace == 0 {
		ps := e.phase(secondsDuration(o.seconds), func(q *query, _ int) (*outcome, error) { return e.exec(q) })
		var err error
		if m, err = e.endToEnd(ps); err != nil {
			return nil, err
		}
	} else {
		var err error
		if m, err = e.traced(o); err != nil {
			return nil, err
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	keys := make([]string, 0, len(e.drift))
	for k := range e.drift {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("finding: counter drift on %s: %s\n", k, e.drift[k])
	}
	if e.firstErr != nil {
		fmt.Println("first failure:", e.firstErr)
	}
	fmt.Printf("failed_frac %.4f ratio (%d of %d attempted failed or returned wrong rows)\n",
		float64(e.failed)/float64(e.attempted), e.failed, e.attempted)
	return &result{
		Correct: e.failed == 0, Attempted: e.attempted, Failed: e.failed, Metrics: m,
	}, nil
}

// describe prints each query's plan choice and reference size and, under
// a memory budget, the admission footprint the scheduler sizes it by.
func (e *env) describe() error {
	budget := e.w.Config().MemBudgetBytes
	for _, q := range e.qs {
		if q.star != nil {
			fmt.Printf("query %-13s alg=n-way      reference rows=%d\n", q.label, len(q.ref))
			continue
		}
		fmt.Printf("query %-13s alg=%-10s reference rows=%d", q.label, q.alg, len(q.ref))
		if budget > 0 {
			jq, err := e.w.Plan(q.sql)
			if err != nil {
				return err
			}
			st, err := e.laneStats(jq, q)
			if err != nil {
				return err
			}
			fmt.Printf(" footprint estimate %.2f MiB against a %.2f MiB budget",
				float64(costmodel.EstimateFootprintBytes(st))/(1<<20), float64(budget)/(1<<20))
		}
		fmt.Println()
	}
	return nil
}

// endToEnd computes the end-to-end metrics of an untraced phase.
func (e *env) endToEnd(ps *phaseStats) (map[string]metricValue, error) {
	if ps.completed == 0 {
		return nil, fmt.Errorf("no query completed correctly")
	}
	lats := sortedDurations(ps.lats)
	tv, pct, ok := tail(lats)
	if !ok {
		return nil, fmt.Errorf("%d samples are too few for the tail rule", len(lats))
	}
	rss, err := peakRSS()
	if err != nil {
		return nil, err
	}
	fmt.Printf("timed phase: %d queries in %.2fs, %d clients (closed loop)\n", ps.completed, ps.wall.Seconds(), e.wl.clients)
	fmt.Printf("latency_tail_ms is p%.1f of %d samples (%d beyond it)\n", pct, len(lats), tailBeyond)
	m := map[string]metricValue{
		"latency_p50_ms":       {ms(median(lats)), "ms"},
		"latency_tail_ms":      {ms(tv), "ms"},
		"queries_per_s":        {float64(ps.completed) / ps.wall.Seconds(), "1/s"},
		"cross_mb_per_query":   {mb(ps.perQuery(keyCross)), "MB"},
		"shuffle_mb_per_query": {mb(ps.perQuery(keyShuffle)), "MB"},
		"peak_rss_mb":          {mb(float64(rss)), "MB"},
	}
	for _, k := range []string{metrics.JENShuffleTuples, metrics.DBSentTuples, metrics.HDFSSentTuples, metrics.SpillBuildRows} {
		fmt.Printf("per query: %s %.1f\n", k, ps.perQuery(k))
	}
	return m, nil
}
