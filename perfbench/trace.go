package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	hybridwh "hybridwh"
	"hybridwh/internal/core"
	"hybridwh/internal/costmodel"
	"hybridwh/internal/mem"
	"hybridwh/internal/plan"
	"hybridwh/internal/sched"
	"hybridwh/internal/sqlparse"
	"hybridwh/internal/types"
)

// span is one timed call, recorded from the benchmark's side of a layer
// boundary. Spans of one query share its id; replays use negative ids.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Query  int    `json:"query"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) begin(name string, parent, query int) int {
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Query: query, Name: name, Start: now})
	return id
}

// end closes a span; closing it again keeps the first end.
func (t *tracer) end(id int) {
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	defer t.mu.Unlock()
	if s := &t.spans[id-1]; s.End == 0 {
		s.End = now
	}
}

// layerTimes sums, per span name, the spans' total and self time. Self
// time is a span's duration minus the part of it its children cover.
type layerTimes struct {
	total, self map[string]time.Duration
	count       map[string]int
}

func (t *tracer) times() layerTimes {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 && s.End != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	lt := layerTimes{total: map[string]time.Duration{}, self: map[string]time.Duration{}, count: map[string]int{}}
	for _, s := range t.spans {
		if s.End == 0 {
			continue
		}
		d := time.Duration(s.End - s.Start)
		lt.total[s.Name] += d
		lt.self[s.Name] += d - covered(children[s.ID])
		lt.count[s.Name]++
	}
	return lt
}

// covered is the length of the union of the spans' intervals.
func covered(spans []span) time.Duration {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var sum, curStart, curEnd int64
	for i, s := range spans {
		if i == 0 || s.Start > curEnd {
			sum += curEnd - curStart
			curStart, curEnd = s.Start, s.End
		} else if s.End > curEnd {
			curEnd = s.End
		}
	}
	return time.Duration(sum + curEnd - curStart)
}

// durations returns the durations of the closed spans with this name.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name && s.End != 0 {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// execTraced runs one query as its layers see it, with a span around each
// call: planning (sqlparse, or the analyzer for star queries), the advisor
// (Explain, given the σ_L the cardinality hint implies so it advises as
// Query does), admission through the scheduler on served workloads, and
// the engine run with the advised algorithm forced.
func (e *env) execTraced(tr *tracer, q *query, qid int) (*outcome, error) {
	t0 := time.Now()
	root := tr.begin("query", 0, qid)
	rows, err := e.tracedPath(tr, root, q, qid)
	tr.end(root)
	lat := time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("%s (traced): %w", q.label, err)
	}
	return e.outcome(rows, lat, q.alg), nil
}

func (e *env) tracedPath(tr *tracer, root int, q *query, qid int) ([]types.Row, error) {
	if q.star != nil {
		s := tr.begin("sqlparse.plan", root, qid)
		_, err := sqlparse.Parse(q.sql)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		s = tr.begin("analyzer.analyze", root, qid)
		_, _, mq, err := e.w.AnalyzeStar(q.sql)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		// Query resets the warehouse's counters before a serial run.
		e.rec.Reset()
		e.bus.Reset()
		e.w.HDFS().ResetReadCounters()
		s = tr.begin("core.run", root, qid)
		res, err := e.w.Engine().RunMultiCtx(context.Background(), mq)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		return res.Rows, nil
	}
	s := tr.begin("sqlparse.plan", root, qid)
	jq, err := e.w.Plan(q.sql)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.begin("advisor.advise", root, qid)
	_, err = e.w.Explain(q.sql, hybridwh.WithSigmaL(q.sigmaL))
	tr.end(s)
	if err != nil {
		return nil, err
	}
	if e.wl.served {
		return e.runScheduled(tr, root, qid, jq, q)
	}
	s = tr.begin("core.run", root, qid)
	res, err := e.w.RunPlan(jq, hybridwh.WithAlgorithm(q.alg), hybridwh.WithCardHint(q.hint))
	tr.end(s)
	if err != nil {
		return nil, err
	}
	return res.Rows, nil
}

// runScheduled admits the planned query through the warehouse's scheduler,
// timing the wait for admission and the engine run separately.
func (e *env) runScheduled(tr *tracer, root, qid int, jq *plan.JoinQuery, q *query) ([]types.Row, error) {
	jq.HDFSCardHint = q.hint
	st, err := e.laneStats(jq, q)
	if err != nil {
		return nil, err
	}
	wait := tr.begin("sched.wait", root, qid)
	defer tr.end(wait)
	p, err := e.w.Scheduler().Submit(context.Background(), sched.Request{
		Label:          q.label,
		Lane:           costmodel.ClassifyLane(st),
		FootprintBytes: costmodel.EstimateFootprintBytes(st),
		Run: func(ctx context.Context, bud *mem.Budget) (any, error) {
			tr.end(wait)
			s := tr.begin("core.run", root, qid)
			defer tr.end(s)
			return e.w.Engine().RunCtxOpts(ctx, jq, q.alg, core.RunOpts{Budget: bud})
		},
	})
	if err != nil {
		return nil, err
	}
	v, err := p.Wait()
	if err != nil {
		return nil, err
	}
	return v.(*core.Result).Rows, nil
}

// laneStats gathers the statistics the warehouse classifies a query's
// admission lane and sizes its memory ask from.
func (e *env) laneStats(jq *plan.JoinQuery, q *query) (costmodel.LaneStats, error) {
	db := e.w.DB()
	tbl, err := db.Table(jq.DBTable)
	if err != nil {
		return costmodel.LaneStats{}, err
	}
	cat, err := e.w.Catalog().Lookup(jq.HDFSTable)
	if err != nil {
		return costmodel.LaneStats{}, err
	}
	return costmodel.LaneStats{
		TRows: tbl.Rows(), LRows: cat.Rows,
		SigmaT:   db.PlanAccess(tbl, jq.DBPred, append([]int(nil), jq.DBProj...)).EstSelectivity,
		SigmaL:   q.sigmaL,
		RowBytes: int64(16 * (len(jq.DBProj) + len(jq.HDFSWire))),
	}, nil
}

// traced measures an untraced and a traced phase of equal length, replays
// each query's inner layers, and derives the per-layer metrics.
func (e *env) traced(o options) (map[string]metricValue, error) {
	half := secondsDuration(o.seconds / 2)
	plain := e.phase(half, func(q *query, _ int) (*outcome, error) { return e.exec(q) })
	tr := newTracer()
	withSpans := e.phase(half, func(q *query, qid int) (*outcome, error) { return e.execTraced(tr, q, qid) })
	counts, err := e.replayAll(tr)
	if err != nil {
		return nil, err
	}
	if err := tr.write(spanDumpPath(o)); err != nil {
		return nil, err
	}
	if plain.completed == 0 || withSpans.completed == 0 {
		return nil, fmt.Errorf("no query completed correctly")
	}
	return e.perLayer(plain, tr, counts), nil
}
