package main

import (
	"fmt"
	"time"

	hybridwh "hybridwh"
	"hybridwh/internal/batch"
	"hybridwh/internal/bloom"
	"hybridwh/internal/expr"
	"hybridwh/internal/format"
	"hybridwh/internal/jen"
	"hybridwh/internal/metrics"
	"hybridwh/internal/netsim"
	"hybridwh/internal/plan"
	"hybridwh/internal/relop"
	"hybridwh/internal/skew"
	"hybridwh/internal/types"
)

// replaySpec is the layer-level view of one query: the HDFS-side scan, the
// database-side access, and the join and aggregation that combine them.
// Star queries replay their first edge.
type replaySpec struct {
	hdfsTable string
	scanProj  []int
	pred      expr.Expr // over the scan layout
	pruner    *format.Pruner
	wire      []int // scan-layout columns shipped
	wireKey   int   // join key in the wire layout
	dbTable   string
	dbPred    expr.Expr
	dbProj    []int
	dbKeyWire int // join key in the database wire layout
	post      expr.Expr
	groupBy   []expr.Expr
	aggs      []relop.AggSpec
}

func twoTableSpec(jq *plan.JoinQuery) replaySpec {
	return replaySpec{
		hdfsTable: jq.HDFSTable, scanProj: jq.HDFSScanProj, pred: jq.HDFSPred, pruner: jq.Pruner(),
		wire: jq.HDFSWire, wireKey: jq.HDFSWireKey,
		dbTable: jq.DBTable, dbPred: jq.DBPred, dbProj: jq.DBProj, dbKeyWire: jq.DBWireKey,
		post: jq.PostJoin, groupBy: jq.GroupBy, aggs: jq.Aggs,
	}
}

func starSpec(mq *plan.MultiQuery) replaySpec {
	ed := mq.Edges[0]
	rs := replaySpec{
		hdfsTable: mq.FactTable, scanProj: mq.FactScanProj, pred: mq.FactPred,
		wire: mq.FactWire, wireKey: ed.FactKeyCol,
		dbTable: ed.Dim.Table, dbPred: ed.Dim.Pred, dbProj: ed.Dim.Proj, dbKeyWire: ed.DimKeyWire,
		groupBy: mq.GroupBy, aggs: mq.Aggs,
	}
	if len(mq.FactPrunerRanges) > 0 {
		rs.pruner = &format.Pruner{Ranges: mq.FactPrunerRanges}
	}
	if rs.dbKeyWire >= len(rs.dbProj) {
		// The key sits in a snowflake sub-dimension's columns; the replay
		// joins on the parent's own key instead.
		rs.dbKeyWire = 0
	}
	return rs
}

// counts accumulates the replays' work counts.
type counts map[string]float64

// replayAll replays every distinct query's inner layers once, serially,
// after the timed phases, so recorder deltas belong to the replay alone.
func (e *env) replayAll(tr *tracer) (counts, error) {
	c := counts{}
	for i, q := range e.qs {
		qid := -(i + 1)
		var rs replaySpec
		if q.star != nil {
			mq, err := e.w.PlanStar(q.sql)
			if err != nil {
				return nil, err
			}
			rs = starSpec(mq)
		} else {
			jq, err := e.w.Plan(q.sql)
			if err != nil {
				return nil, err
			}
			rs = twoTableSpec(jq)
			before := e.rec.Get(metrics.JENScanRows)
			if _, err := e.w.Explain(q.sql, hybridwh.WithSigmaL(q.sigmaL)); err != nil {
				return nil, err
			}
			c["advisor.sample_rows"] += float64(e.rec.Get(metrics.JENScanRows) - before)
		}
		if err := e.replay(tr, qid, rs, c); err != nil {
			return nil, fmt.Errorf("replay %s: %w", q.label, err)
		}
	}
	return c, nil
}

func (e *env) replay(tr *tracer, qid int, rs replaySpec, c counts) error {
	root := tr.begin("replay", 0, qid)
	defer tr.end(root)
	jc := e.w.Engine().JEN()
	rows := jc.BatchRows()
	scanPlan, err := jc.PlanScan(rs.hdfsTable)
	if err != nil {
		return err
	}

	// jen: each worker's filtered scan, as the query runs it. The
	// survivors, projected to the wire layout, feed the later layers.
	var lWire []*batch.Batch
	cur := batch.New(len(rs.wire), rows)
	before := e.rec.Get(metrics.JENScanRows)
	for wk := 0; wk < jc.Workers(); wk++ {
		s := tr.begin("jen.scan", root, qid)
		err := jc.ScanFilterBatches(jen.ScanSpec{
			Plan: scanPlan, Worker: wk, Proj: rs.scanProj, Pred: rs.pred, Pruner: rs.pruner,
		}, func(b *batch.Batch) error {
			k := tr.begin("bench.collect", s, qid)
			defer tr.end(k)
			c["jen.survivors"] += float64(b.Len())
			return b.Each(func(i int) error {
				cur.AppendFrom(b, i, rs.wire)
				if cur.Full() {
					lWire = append(lWire, cur)
					cur = batch.New(len(rs.wire), rows)
				}
				return nil
			})
		})
		tr.end(s)
		if err != nil {
			return err
		}
	}
	if cur.Size() > 0 {
		lWire = append(lWire, cur)
	}
	c["jen.scan_rows"] += float64(e.rec.Get(metrics.JENScanRows) - before)

	if err := e.replayDecode(tr, root, qid, rs, scanPlan, c); err != nil {
		return err
	}
	tPrime, err := e.replayEDW(tr, root, qid, rs, c)
	if err != nil {
		return err
	}
	e.replayBloom(tr, root, qid, rs, tPrime, lWire, c)
	if err := replayWire(tr, root, qid, len(rs.wire), rows, lWire, c); err != nil {
		return err
	}
	if err := replayJoin(tr, root, qid, rs, rows, tPrime, lWire, c); err != nil {
		return err
	}
	cfg := e.w.Config()
	if cfg.MemBudgetBytes > 0 {
		// A per-worker share of the workload's memory budget.
		share := cfg.MemBudgetBytes / int64(jc.Workers())
		return replaySpill(tr, root, qid, rs, share, cfg.SpillDir, tPrime, lWire)
	}
	return nil
}

// replayDecode decodes every work unit with the format readers and runs
// the predicate kernel over each decoded batch.
func (e *env) replayDecode(tr *tracer, root, qid int, rs replaySpec, sp *jen.ScanPlan, c counts) error {
	jc := e.w.Engine().JEN()
	pool := batch.NewPool(len(rs.scanProj), jc.BatchRows())
	for wk, units := range sp.Units {
		for _, u := range units {
			s := tr.begin("format.decode", root, qid)
			yield := func(b *batch.Batch) error {
				defer pool.Put(b)
				c["expr.rows_in"] += float64(b.Len())
				f := tr.begin("expr.filter", s, qid)
				err := expr.FilterBatch(rs.pred, b)
				tr.end(f)
				c["expr.rows_out"] += float64(b.Len())
				return err
			}
			src := jc.Source(u.Path, wk)
			var st format.ScanStats
			var err error
			if u.Meta != nil {
				st, err = format.ScanHWCBatches(src, u.Meta, u.Groups, rs.scanProj, rs.pruner, u.ChargeFooter, pool, yield)
			} else {
				st, err = format.ScanTextBatches(src, sp.Table.Schema, u.Start, u.End, rs.scanProj, pool, yield)
			}
			tr.end(s)
			if err != nil {
				return err
			}
			c["format.bytes"] += float64(st.BytesRead)
		}
	}
	return nil
}

// replayEDW filters and projects T' on every database worker through the
// optimizer's access path, then builds the database-side Bloom filter.
func (e *env) replayEDW(tr *tracer, root, qid int, rs replaySpec, c counts) ([]*batch.Batch, error) {
	db := e.w.DB()
	tbl, err := db.Table(rs.dbTable)
	if err != nil {
		return nil, err
	}
	ap := db.PlanAccess(tbl, rs.dbPred, append([]int(nil), rs.dbProj...))
	before := e.rec.Get(metrics.DBScanRows) + e.rec.Get(metrics.DBIndexRows)
	var tPrime []*batch.Batch
	for wk := 0; wk < db.Workers(); wk++ {
		s := tr.begin("edw.access", root, qid)
		err := db.FilterProjectBatches(tbl, wk, ap, rs.dbProj, e.w.Engine().JEN().BatchRows(), 1, func(b *batch.Batch) error {
			k := tr.begin("bench.collect", s, qid)
			tPrime = append(tPrime, b.Clone())
			c["edw.tprime_rows"] += float64(b.Len())
			tr.end(k)
			return nil
		})
		tr.end(s)
		if err != nil {
			return nil, err
		}
	}
	c["edw.rows_touched"] += float64(e.rec.Get(metrics.DBScanRows) + e.rec.Get(metrics.DBIndexRows) - before)
	cfg := e.w.Config()
	s := tr.begin("edw.bloom_build", root, qid)
	_, err = db.BuildBloom(tbl, rs.dbPred, rs.dbProj[rs.dbKeyWire], cfg.BloomBits, cfg.BloomHashes)
	tr.end(s)
	return tPrime, err
}

func keysOf(bs []*batch.Batch, col int) []int64 {
	var keys []int64
	for _, b := range bs {
		vals := b.Col(col)
		_ = b.Each(func(i int) error {
			keys = append(keys, vals[i].Int())
			return nil
		})
	}
	return keys
}

// replayBloom builds a filter over T' keys and probes it with every L'
// key; false positives are counted against the exact T' key set. The
// sketch replay feeds the same L' keys to a heavy-hitter sketch.
func (e *env) replayBloom(tr *tracer, root, qid int, rs replaySpec, tPrime, lWire []*batch.Batch, c counts) {
	cfg := e.w.Config()
	tKeys := keysOf(tPrime, rs.dbKeyWire)
	lKeys := keysOf(lWire, rs.wireKey)
	exact := make(map[int64]bool, len(tKeys))
	th := make([]uint64, len(tKeys))
	for i, k := range tKeys {
		exact[k] = true
		th[i] = types.BloomHashKey(k)
	}
	lh := make([]uint64, len(lKeys))
	for i, k := range lKeys {
		lh[i] = types.BloomHashKey(k)
	}
	f := bloom.New(cfg.BloomBits, cfg.BloomHashes)
	s := tr.begin("bloom.build", root, qid)
	f.AddHashes(th)
	tr.end(s)
	s = tr.begin("bloom.probe", root, qid)
	hits := f.TestHashes(lh, nil)
	tr.end(s)
	for i, hit := range hits {
		c["bloom.probes"]++
		if hit {
			c["bloom.passed"]++
		}
		if !exact[lKeys[i]] {
			c["bloom.negatives"]++
			if hit {
				c["bloom.false_positives"]++
			}
		}
	}

	sk := skew.NewSketch(256)
	s = tr.begin("skew.sketch", root, qid)
	for _, k := range lKeys {
		sk.Add(k)
	}
	tr.end(s)
}

// replayWire encodes and decodes every L' wire batch and sends the frames
// between two endpoints of a fresh in-process bus.
func replayWire(tr *tracer, root, qid, ncols, rows int, lWire []*batch.Batch, c counts) error {
	frames := make([][]byte, 0, len(lWire))
	dst := batch.New(ncols, rows)
	for _, b := range lWire {
		s := tr.begin("batch.encode", root, qid)
		buf := batch.EncodeBatch(b)
		tr.end(s)
		s = tr.begin("batch.decode", root, qid)
		err := batch.DecodeBatch(buf, dst)
		tr.end(s)
		if err != nil {
			return err
		}
		frames = append(frames, buf)
		c["batch.wire_bytes"] += float64(len(buf))
	}

	bus := netsim.NewChanBus(0)
	defer bus.Close()
	if _, err := bus.Register("jen/0"); err != nil {
		return err
	}
	inbox, err := bus.Register("jen/1")
	if err != nil {
		return err
	}
	sent := make(chan struct{})
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for {
			select {
			case <-inbox:
			case <-sent:
				for {
					select {
					case <-inbox:
					default:
						return
					}
				}
			}
		}
	}()
	s := tr.begin("netsim.send", root, qid)
	for _, f := range frames {
		if err = bus.Send("jen/0", "jen/1", netsim.Msg{Type: netsim.MsgRows, Stream: "replay", Payload: f}); err != nil {
			break
		}
		c["netsim.frames"]++
	}
	tr.end(s)
	close(sent)
	<-drained
	return err
}

// replayJoin builds an in-memory join table over T', probes it with L',
// and aggregates the joined rows after the post-join predicate.
func replayJoin(tr *tracer, root, qid int, rs replaySpec, rows int, tPrime, lWire []*batch.Batch, c counts) error {
	jt := relop.NewMemJoinTable(rs.dbKeyWire)
	s := tr.begin("relop.build", root, qid)
	for _, b := range tPrime {
		if err := jt.InsertBatch(b); err != nil {
			tr.end(s)
			return err
		}
	}
	err := jt.FinishBuild()
	tr.end(s)
	if err != nil {
		return err
	}
	agg := relop.NewHashAgg(rs.groupBy, rs.aggs)
	joined := batch.New(len(rs.wire)+len(rs.dbProj), rows)
	probe := tr.begin("relop.probe", root, qid)
	defer tr.end(probe)
	flush := func() error {
		a := tr.begin("relop.agg", probe, qid)
		defer tr.end(a)
		if rs.post != nil {
			f := tr.begin("expr.postjoin", a, qid)
			err := expr.FilterBatch(rs.post, joined)
			tr.end(f)
			if err != nil {
				return err
			}
		}
		err := agg.AddBatch(joined)
		joined.Reset()
		return err
	}
	for _, b := range lWire {
		err := jt.ProbeBatch(b, rs.wireKey, func(buildRow, probeRow types.Row) error {
			joined.AppendConcat(probeRow, buildRow)
			c["relop.join_rows"]++
			if joined.Full() {
				return flush()
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	if joined.Size() > 0 {
		if err := flush(); err != nil {
			return err
		}
	}
	c["relop.agg_groups"] += float64(agg.NumGroups())
	return nil
}

// replaySpill runs the same join through the dynamic hybrid hash join
// under a memory budget, draining the spilled partitions at the end.
func replaySpill(tr *tracer, root, qid int, rs replaySpec, budget int64, dir string, tPrime, lWire []*batch.Batch) error {
	st, err := relop.NewSpillingHashTable(rs.dbKeyWire, budget, dir)
	if err != nil {
		return err
	}
	s := tr.begin("relop.spill_join", root, qid)
	err = spillJoin(st, rs, tPrime, lWire)
	tr.end(s)
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	return err
}

func spillJoin(st *relop.SpillingHashTable, rs replaySpec, tPrime, lWire []*batch.Batch) error {
	for _, b := range tPrime {
		if err := st.InsertBatch(b); err != nil {
			return err
		}
	}
	if err := st.FinishBuild(); err != nil {
		return err
	}
	emit := func(_, _ types.Row) error { return nil }
	for _, b := range lWire {
		if err := st.ProbeBatch(b, rs.wireKey, emit); err != nil {
			return err
		}
	}
	return st.Drain(emit)
}

// perLayer derives the per-layer metrics from the untraced phase's
// counters, the traced phase's query-path spans and the replays' spans.
func (e *env) perLayer(plain *phaseStats, tr *tracer, c counts) map[string]metricValue {
	lt := tr.times()
	nq := float64(lt.count["query"])
	nr := float64(lt.count["replay"])
	perQ := func(name string) float64 { return ms(lt.total[name]) / nq }
	perR := func(name string) float64 { return ms(lt.self[name]) / nr }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	rate := func(n float64, name string) float64 { return ratio(n, lt.self[name].Seconds()) }
	balance := e.rec.BalanceRatio(metrics.JENRecvTuples)
	if !e.wl.served {
		var sum float64
		for _, b := range plain.balance {
			sum += b
		}
		balance = ratio(sum, float64(len(plain.balance)))
	}
	v := map[string]float64{
		"sqlparse.plan_ms":       perQ("sqlparse.plan"),
		"advisor.advise_ms":      perQ("advisor.advise"),
		"advisor.sample_rows":    c["advisor.sample_rows"] / nr,
		"analyzer.analyze_ms":    perQ("analyzer.analyze"),
		"analyzer.rules_applied": e.rulesApplied(),
		"core.run_ms":            perQ("core.run"),
		"core.run_share":         ratio(float64(lt.total["core.run"]), float64(lt.total["query"])),
		"adapt.decisions":        plain.perQuery(metrics.AdaptDecisions),
		"adapt.switches":         plain.perQuery(metrics.AdaptSwitches),
		"edw.access_ms":          perR("edw.access"),
		"edw.rows_touched":       c["edw.rows_touched"] / nr,
		"edw.tprime_rows":        c["edw.tprime_rows"] / nr,
		"edw.bloom_build_ms":     perR("edw.bloom_build"),
		"format.decode_ms":       perR("format.decode"),
		"format.decode_mb_per_s": rate(mb(c["format.bytes"]), "format.decode"),
		"format.bytes_read":      mb(c["format.bytes"]) / nr,
		"expr.filter_ms":         perR("expr.filter"),
		"expr.filter_rows_per_s": rate(c["expr.rows_in"], "expr.filter"),
		"expr.pass_ratio":        ratio(c["expr.rows_out"], c["expr.rows_in"]),
		"jen.scan_ms":            perR("jen.scan"),
		"jen.scan_rows":          c["jen.scan_rows"] / nr,
		"jen.survive_ratio":      ratio(c["jen.survivors"], c["jen.scan_rows"]),
		"bloom.build_ms":         perR("bloom.build"),
		"bloom.probe_ms":         perR("bloom.probe"),
		"bloom.pass_ratio":       ratio(c["bloom.passed"], c["bloom.probes"]),
		"bloom.fp_ratio":         ratio(c["bloom.false_positives"], c["bloom.negatives"]),
		"batch.encode_ms":        perR("batch.encode"),
		"batch.decode_ms":        perR("batch.decode"),
		"batch.wire_mb":          mb(c["batch.wire_bytes"]) / nr,
		"netsim.send_ms":         perR("netsim.send"),
		"netsim.frames_per_s":    rate(c["netsim.frames"], "netsim.send"),
		"netsim.messages":        plain.perQuery(keyMessages),
		"netsim.intra_db_mb":     mb(plain.perQuery(keyIntraDB)),
		"relop.build_ms":         perR("relop.build"),
		"relop.probe_ms":         perR("relop.probe"),
		"relop.join_rows":        c["relop.join_rows"] / nr,
		"relop.agg_ms":           perR("relop.agg"),
		"relop.agg_groups":       c["relop.agg_groups"] / nr,
		"relop.spill_join_ms":    perR("relop.spill_join"),
		"relop.spill_build_rows": plain.perQuery(metrics.SpillBuildRows),
		"relop.spill_probe_rows": plain.perQuery(metrics.SpillProbeRows),
		"relop.spill_evictions":  plain.perQuery(metrics.SpillEvictions),
		"skew.sketch_ms":         perR("skew.sketch"),
		"skew.hot_keys":          plain.perQuery(metrics.SkewHotKeys),
		"shuffle.balance":        balance,
		"sched.wait_ms":          perQ("sched.wait"),
		"sched.running_peak":     float64(e.rec.GaugePeak(metrics.SchedRunning)),
		"mem.reserved_peak_mb":   mb(float64(e.rec.GaugePeak(metrics.MemReservedBytes))),
		"mem.overshoot_peak_mb":  mb(float64(e.rec.GaugePeak(metrics.MemOvershootBytes))),
		"jen.shuffle_tuples":     plain.perQuery(metrics.JENShuffleTuples),
		"db.sent_tuples":         plain.perQuery(metrics.DBSentTuples),
		"hdfs.sent_tuples":       plain.perQuery(metrics.HDFSSentTuples),
	}
	reportTrace(plain, tr, lt)
	out := map[string]metricValue{}
	for _, d := range perLayer {
		out[d.name] = metricValue{v[d.name], d.unit}
		fmt.Printf("layer %-24s %14.4f %-7s moves: %s\n", d.name, v[d.name], d.unit, d.moves)
	}
	return out
}

// rulesApplied is the analyzer's rule applications per star query.
func (e *env) rulesApplied() float64 {
	var n, stars float64
	for _, q := range e.qs {
		if q.star == nil {
			continue
		}
		_, trace, _, err := e.w.AnalyzeStar(q.sql)
		if err != nil || trace == nil {
			continue
		}
		n += float64(len(trace.Steps))
		stars++
	}
	if stars == 0 {
		return 0
	}
	return n / stars
}

// reportTrace prints the tracing overhead, traced minus untraced
// latency_p50_ms, and checks that the query-path layer spans account for
// the untraced per-query latency. Means are compared with means, as the
// layer metrics are per-query means; the two phases run at different
// times, so the check allows 10% of run-to-run noise on top of the
// overhead.
func reportTrace(plain *phaseStats, tr *tracer, lt layerTimes) {
	traced := tr.durations("query")
	overhead := median(sortedDurations(traced)) - median(sortedDurations(plain.lats))
	fmt.Printf("tracing overhead: %.3f ms latency_p50_ms (traced minus untraced)\n", ms(overhead))
	var parts time.Duration
	for _, n := range []string{"sqlparse.plan", "advisor.advise", "analyzer.analyze", "sched.wait", "core.run"} {
		parts += lt.total[n]
	}
	layers := parts / time.Duration(len(traced))
	untraced := mean(plain.lats)
	slack := absDuration(mean(traced)-untraced) + untraced/10
	verdict := "consistent"
	if absDuration(layers-untraced) > slack {
		verdict = "INCONSISTENT"
	}
	fmt.Printf("trace consistency: layer spans %.3f ms per query vs untraced mean latency %.3f ms (allowed gap %.3f ms): %s\n",
		ms(layers), ms(untraced), ms(slack), verdict)
}
