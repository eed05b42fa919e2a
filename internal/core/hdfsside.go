package core

import (
	"context"
	"sync"
	"sync/atomic"

	"hybridwh/internal/batch"
	"hybridwh/internal/bloom"
	"hybridwh/internal/cluster"
	"hybridwh/internal/edw"
	"hybridwh/internal/expr"
	"hybridwh/internal/jen"
	"hybridwh/internal/metrics"
	"hybridwh/internal/par"
	"hybridwh/internal/plan"
	"hybridwh/internal/relop"
	"hybridwh/internal/skew"
	"hybridwh/internal/types"
)

func dbName(i int) string  { return cluster.DBName(i) }
func jenName(i int) string { return cluster.JENName(i) }

// firstErr keeps the first non-nil error.
func firstErr(dst *error, err error) {
	if *dst == nil && err != nil {
		*dst = err
	}
}

// runHDFSSide executes the repartition join (± Bloom filter) and the zigzag
// join: the final join happens on the HDFS side, with both systems routing
// rows by the agreed hash function (Figures 3 and 4).
func (e *Engine) runHDFSSide(ctx context.Context, qs string, q *plan.JoinQuery, alg Algorithm) (*Result, error) {
	useBF := alg == RepartitionBloom || alg == Zigzag
	zig := alg == Zigzag
	n, m := e.jen.Workers(), e.db.Workers()

	tbl, err := e.db.Table(q.DBTable)
	if err != nil {
		return nil, err
	}
	scanPlan, err := e.jen.PlanScan(q.HDFSTable)
	if err != nil {
		return nil, err
	}
	need := append(append([]int(nil), q.DBProj...), colSet(q.DBPred)...)
	accessPlan := e.db.PlanAccess(tbl, q.DBPred, need)

	// Steps 1–2: build the global BF_DB and send it to every JEN worker.
	// This is blocking — everything on the HDFS side depends on it.
	if useBF {
		bfdb, err := e.db.BuildBloom(tbl, q.DBPred, q.DBJoinColBase, e.cfg.BloomBits, e.cfg.BloomHashes)
		if err != nil {
			return nil, err
		}
		if err := e.sendBloom(dbName(0), qs+"bfdb", bfdb, e.jenNames()); err != nil {
			return nil, err
		}
	}

	// Mid-query switching (Config.AdaptiveSwitch): the designated worker's
	// decision lands in st for the facade to surface on the Result.
	var st *adaptState
	if e.adaptiveOn() {
		st = &adaptState{}
	}

	g, ctx := par.WithContext(ctx)
	var resultRows []types.Row

	// The designated JEN worker returns the final aggregate to one DB node
	// (step 9 of Figure 4).
	g.Go(func() error {
		rows, err := e.collectRows(ctx, dbName(0), qs+"final", 1)
		resultRows = rows
		return err
	})

	for i := 0; i < m; i++ {
		i := i
		g.Go(func() error { return e.dbShipProgram(ctx, qs, q, tbl, accessPlan, i, n, zig) })
	}
	for w := 0; w < n; w++ {
		w := w
		g.Go(func() error { return e.jenRepartitionProgram(ctx, qs, q, scanPlan, w, n, m, useBF, zig, st) })
	}
	if err := g.Wait(); err != nil {
		return nil, err
	}
	res := &Result{Rows: resultRows}
	if d := st.load(); d != nil {
		res.SwitchReason = d.reason
		if d.kind != keepPlan {
			res.Switched = true
			res.SwitchedTo = d.kind.String()
		}
	}
	return res, nil
}

// dbShipProgram is one DB worker's side of the repartition/zigzag join:
// filter and project T locally, optionally wait for BF_H and apply it
// (zigzag steps 4–5), then route T' rows directly to the JEN workers that
// will join them (step 6), using the agreed hash function.
func (e *Engine) dbShipProgram(ctx context.Context, qs string, q *plan.JoinQuery, tbl *edw.Table, ap edw.AccessPlan, i, n int, zig bool) error {
	var runErr error
	pr := newProg(ctx, &runErr)
	defer pr.release()
	ctx = pr.ctx
	destOf := func(key int64) string { return jenName(cluster.PartitionFor(key, n)) }
	b := e.newBatcher(ctx, dbName(i), qs+"dbrows", e.jenNames(), metrics.DBSentTuples, metrics.DBSentBytes, i)

	if !zig {
		if e.adaptiveOn() {
			// Adaptive: T' is materialized so its observed size can feed
			// the switch decision, and routing waits for that decision —
			// hash home, hybrid scatter, or full broadcast.
			tw, err := e.db.FilterProject(tbl, i, ap, q.DBProj)
			pr.fail(err)
			e.adaptObserveT(pr, qs, q, i, tw)
			e.adaptRouteRows(ctx, pr, qs, q, b, i, tw, destOf, &runErr)
		} else if e.skewOn() {
			// Hybrid routing needs the agreed hot set, which exists only
			// after the whole HDFS scan: materialize T', wait for the set,
			// then ship with hot rows replicated to every JEN worker.
			tw, err := e.db.FilterProject(tbl, i, ap, q.DBProj)
			pr.fail(err)
			hot, herr := e.recvHotSet(ctx, dbName(i), qs+"hotset")
			pr.fail(herr)
			if runErr == nil {
				pr.fail(b.scatterRowsHybrid(tw, q.DBWireKey, hot, destOf))
			}
		} else {
			// No Bloom filter to wait for: T' streams out batch-at-a-time as
			// the partition scan produces it.
			pr.fail(e.db.FilterProjectBatches(tbl, i, ap, q.DBProj, e.cfg.BatchRows, e.cfg.WorkerThreads, func(fb *batch.Batch) error {
				return b.scatterBatch(fb, nil, q.DBWireKey, destOf)
			}))
		}
		pr.fail(b.CloseWith(runErr))
		return runErr
	}

	// Zigzag: T' must be materialized — BF_H arrives only after the whole
	// HDFS scan completes, and it prunes what is shipped (steps 4–5).
	// Under the adaptive layer the skew path stands down (the hybrid
	// partitioner engages only by observed decision).
	adaptOn := e.adaptiveOn()
	skewOn := e.skewOn() && !adaptOn
	tw, err := e.db.FilterProject(tbl, i, ap, q.DBProj)
	if err != nil {
		// Protocol obligation: JEN workers expecting this worker's stream
		// must learn of the failure, the observation fan-in must still be
		// fed, and the BF_H/decision receives must be drained — under the
		// aborted program context, so they cannot block even when the
		// payloads will never arrive.
		pr.fail(err)
		pr.fail(b.CloseWith(runErr))
		if adaptOn {
			e.adaptObserveT(pr, qs, q, i, nil)
		}
		if _, berr := e.recvBloom(ctx, dbName(i), qs+"bfh", 1); berr != nil {
			pr.fail(berr)
		}
		if adaptOn {
			e.adaptRouteRows(ctx, pr, qs, q, b, i, nil, destOf, &runErr)
		}
		if skewOn {
			if _, herr := e.recvHotSet(ctx, dbName(i), qs+"hotset"); herr != nil {
				pr.fail(herr)
			}
		}
		return runErr
	}
	if adaptOn {
		// The snapshot goes out before the BF_H wait (see adaptObserveT);
		// |T'| is reported pre-pruning — an upper bound, which is what the
		// committed plan would ship if BF_H turned out useless.
		e.adaptObserveT(pr, qs, q, i, tw)
	}
	bfh, berr := e.recvBloom(ctx, dbName(i), qs+"bfh", 1)
	if berr != nil {
		pr.fail(berr)
	} else {
		// The optimizer decides whether T' was worth materializing; in
		// either case BF_H prunes what is shipped (zigzag step 5).
		tw, _ = e.db.ApplyBloom(tw, q.DBWireKey, bfh)
	}
	if adaptOn {
		e.adaptRouteRows(ctx, pr, qs, q, b, i, tw, destOf, &runErr)
	} else if skewOn {
		hot, herr := e.recvHotSet(ctx, dbName(i), qs+"hotset")
		pr.fail(herr)
		if runErr == nil {
			pr.fail(b.scatterRowsHybrid(tw, q.DBWireKey, hot, destOf))
		}
	} else if runErr == nil {
		pr.fail(b.scatterRows(tw, q.DBWireKey, destOf))
	}
	pr.fail(b.CloseWith(runErr))
	return runErr
}

// jenRepartitionProgram is one JEN worker's side of the repartition/zigzag
// join, implementing the Figure 7 pipeline: receive BF_DB, scan/filter/
// shuffle while concurrently building the hash table from received rows and
// buffering database rows in the background, then probe, partially
// aggregate, and participate in the global aggregation.
func (e *Engine) jenRepartitionProgram(ctx context.Context, qs string, q *plan.JoinQuery, scanPlan *jen.ScanPlan, w, n, m int, useBF, zig bool, st *adaptState) error {
	me := jenName(w)
	var runErr error
	pr := newProg(ctx, &runErr)
	defer pr.release()
	ctx = pr.ctx

	// Blocking: wait for the database Bloom filter (zigzag step 2).
	var bfdb *bloom.Filter
	if useBF {
		f, err := e.recvBloom(ctx, me, qs+"bfdb", 1)
		pr.fail(err)
		bfdb = f
	}

	// Background receivers start before any sending to keep the shuffle
	// deadlock-free: the hash table builds from shuffled rows as they
	// arrive, and database rows are buffered as they arrive (Section 4.4).
	// With a spill budget configured, the build side grace-spills to disk
	// instead of growing without bound.
	bud := e.budget(qs)
	ht, err := e.newJoinTable(qs, q.HDFSWireKey)
	if err != nil {
		pr.fail(err)
		ht = relop.NewMemJoinTable(q.HDFSWireKey)
	}
	defer ht.Close()
	var dbBatches []*batch.Batch
	var probeTuples int64
	// Receiver errors abort the program context (bgFail): if one receiver
	// hits an incoming MsgError, its sibling and the rest of the program must
	// not keep waiting for streams a dead peer will never finish.
	var bg par.Group
	bg.Go(func() error {
		var recv int64
		err := e.recvBatches(ctx, me, qs+"shuffle", n, func(b *batch.Batch) error {
			recv += int64(b.Len())
			return ht.InsertBatch(b)
		})
		e.rec.AddAt(metrics.JENRecvTuples, w, recv)
		pr.bgFail(err)
		return err
	})
	bg.Go(func() error {
		bs, tuples, err := e.collectBatches(ctx, me, qs+"dbrows", m)
		dbBatches, probeTuples = bs, tuples
		pr.bgFail(err)
		return err
	})

	// Scan + process + send, all pipelined.
	var bfh *bloom.Filter
	if zig {
		bfh = bloom.New(e.cfg.BloomBits, e.cfg.BloomHashes)
	}
	b := e.newBatcher(ctx, me, qs+"shuffle", e.jenNames(), metrics.JENShuffleTuples, metrics.JENShuffleBytes, w)
	scanKey := q.HDFSWire[q.HDFSWireKey]
	destOf := func(key int64) string { return jenName(cluster.PartitionFor(key, n)) }
	spec := jen.ScanSpec{
		Plan: scanPlan, Worker: w,
		Proj: q.HDFSScanProj, Pred: q.HDFSPred, Pruner: q.Pruner(),
		DBFilter: wrapBloom(bfdb), BuildBloom: bfh, BloomKeyIdx: scanKey,
		// Morsel workers filter, bloom-probe and shuffle concurrently; the
		// shared batcher keeps message counts deterministic.
		Threads: e.cfg.WorkerThreads,
		Mem:     bud,
	}
	// The adaptive layer subsumes the static skew path: plain hash routing
	// is the committed default and the hybrid partitioner engages only by
	// observed decision.
	adaptOn := e.adaptiveOn()
	skewOn := e.skewOn() && !adaptOn
	var aw *adaptJENWorker
	if adaptOn {
		watch, werr := e.watchDecision(me, qs+"adapt.dec")
		pr.fail(werr)
		if werr == nil {
			defer watch.close()
			aw = newAdaptJENWorker(e, qs, q, b, w, n, scanKey, watch, destOf)
			spec.Progress = &aw.progress
		}
	}
	var sk *skew.Sketch
	var buffered []*batch.Batch
	if runErr == nil {
		var err error
		if aw != nil {
			// Adaptive: buffer, observe and poll for the switch decision;
			// routing starts the moment the decision lands (see adaptive.go).
			err = e.jen.ScanFilterBatches(spec, aw.onBatch)
		} else if skewOn {
			// Skew path: the shuffle is deferred — the hot set does not
			// exist until every worker's scan completes — so the scan builds
			// the heavy-hitter sketch and buffers wire-projected batches
			// locally instead of scattering them.
			sk = skew.NewSketch(e.cfg.SkewSketchKeys)
			spec.BuildSketch = sk
			var bufMu sync.Mutex // guards buffered (morsel workers yield concurrently)
			err = e.jen.ScanFilterBatches(spec, func(sb *batch.Batch) error {
				wb := batch.New(len(q.HDFSWire), sb.Len())
				perr := sb.Each(func(i int) error {
					wb.AppendFrom(sb, i, q.HDFSWire)
					return nil
				})
				bufMu.Lock()
				buffered = append(buffered, wb)
				bufMu.Unlock()
				return perr
			})
		} else {
			err = e.jen.ScanFilterBatches(spec, func(sb *batch.Batch) error {
				return b.scatterBatch(sb, q.HDFSWire, scanKey, destOf)
			})
		}
		pr.fail(err)
	}
	if skewOn {
		// Agree on the hot set, then shuffle from the buffers: cold keys to
		// their hash home (identical to the plain partitioner), hot keys
		// round-robin from a per-sender offset so no worker receives a hot
		// key's full volume.
		hot, herr := e.agreeHotSet(ctx, qs, me, w, n, sk)
		pr.fail(herr)
		if runErr == nil {
			p := skew.NewPartitioner(n, hot, w)
			var hotTuples int64
			route := func(key int64) string {
				if p.IsHot(key) {
					hotTuples++
				}
				return jenName(p.Route(key))
			}
			for _, wb := range buffered {
				if err := b.scatterBatch(wb, nil, q.HDFSWireKey, route); err != nil {
					pr.fail(err)
					break
				}
			}
			e.rec.AddAt(metrics.JENShuffleHotTuples, w, hotTuples)
		}
	}
	if aw != nil {
		// Complete the switch handshake: contribute this worker's snapshot
		// (even when failing), coordinate at the designated worker, then
		// apply the decision — flushing the buffered batches for keep and
		// hybrid, or retaining them for the local broadcast probe below.
		aw.finish(ctx, pr, scanPlan.Table.Rows, int64(16*len(q.HDFSWire)), st)
	}
	pr.fail(b.CloseWith(runErr))

	// Zigzag steps 3b–4: local BF_H to the designated worker; the
	// designated worker unions them and broadcasts BF_H to the database.
	// The (possibly partial) filter is sent even on the error path so the
	// fan-in completes; the query's failure travels via MsgError and the
	// context.
	desig := e.jen.DesignatedWorker()
	if zig {
		pr.fail(e.sendBloom(me, qs+"bfhlocal", bfh, []string{jenName(desig)}))
		if w == desig {
			global, err := e.recvBloom(ctx, me, qs+"bfhlocal", n)
			pr.fail(err)
			if global == nil {
				global = bloom.New(e.cfg.BloomBits, e.cfg.BloomHashes)
			}
			pr.fail(e.sendBloom(me, qs+"bfh", global, e.dbNames()))
		}
	}

	// Wait for the hash table and the buffered database rows.
	pr.fail(bg.Wait())
	pr.fail(ht.FinishBuild())

	agg := relop.NewHashAgg(q.GroupBy, q.Aggs)
	agg.SetBudget(bud)
	defer func() { bud.Release(agg.MemBytes()) }()

	if aw != nil && aw.decided() == switchBroadcast {
		// Broadcast switch: the shuffle carried no rows (ht stayed empty)
		// and dbBatches hold the full broadcast T'; join the buffered L'
		// against it locally, exactly as runBroadcast would have.
		charged := chargeBatches(bud, dbBatches)
		defer bud.Release(charged)
		if runErr == nil {
			pr.fail(e.probeLocalBroadcast(aw.takeBuffered(), dbBatches, q, agg, w, bud))
		}
	} else {
		e.rec.AddAt(metrics.JoinBuildTuples, w, ht.Len())
		e.rec.AddAt(metrics.JoinProbeTuples, w, probeTuples)

		// The buffered probe side is charged to the query budget for the
		// probe's duration (the build side accounts for itself inside the
		// spilling table).
		charged := chargeBatches(bud, dbBatches)
		defer bud.Release(charged)

		// Probe with the database rows; combined layout is HDFS wire ++ DB wire.
		if runErr == nil {
			pr.fail(e.probeAndAggregateBatches(ht, dbBatches, q, agg, e.cfg.WorkerThreads))
		}
		e.recordSpillStats(ht, w)
	}

	return e.finishHDFSAggregation(ctx, qs, q, agg, w, n, runErr)
}

// newJoinTable builds the HDFS-side join table for the query: a dynamic
// hybrid hash join charging the query's shared budget when one is
// registered (RunOpts.Budget), a privately-budgeted spilling table under
// Config.SpillBudgetBytes, and the unbounded in-memory table otherwise.
func (e *Engine) newJoinTable(qs string, keyIdx int) (relop.JoinTable, error) {
	if bud := e.budget(qs); bud != nil {
		return relop.NewSharedSpillingHashTable(keyIdx, bud, e.cfg.SpillDir)
	}
	if e.cfg.SpillBudgetBytes > 0 {
		return relop.NewSpillingHashTable(keyIdx, e.cfg.SpillBudgetBytes, e.cfg.SpillDir)
	}
	return relop.NewMemJoinTable(keyIdx), nil
}

// combiner accumulates join matches (build row ++ probe row) into a
// combined-layout batch; when the batch fills, the post-join predicate runs
// as a batch filter and the survivors fold into the partial aggregate
// batch-at-a-time. output counts survivors.
type combiner struct {
	e      *Engine
	q      *plan.JoinQuery
	agg    *relop.HashAgg
	out    *batch.Batch
	output int64
}

func (c *combiner) add(left, right types.Row) error {
	if c.out == nil {
		c.out = batch.New(len(left)+len(right), c.e.cfg.BatchRows)
	}
	c.out.AppendConcat(left, right)
	if c.out.Full() {
		return c.flush()
	}
	return nil
}

func (c *combiner) flush() error {
	if c.out == nil || c.out.Size() == 0 {
		return nil
	}
	if err := expr.FilterBatch(c.q.PostJoin, c.out); err != nil {
		return err
	}
	c.output += int64(c.out.Len())
	if err := c.agg.AddBatch(c.out); err != nil {
		return err
	}
	c.out.Reset()
	return nil
}

// probeAndAggregateBatches probes the table of HDFS rows with the buffered
// database batches, applies the post-join predicate and folds survivors into
// the partial aggregate: probe batches drive JoinTable.ProbeBatch, matches
// accumulate through a combiner, and spilled matches surface during Drain.
// With threads > 1 and a purely in-memory table the probe fans out across
// goroutines; the spilling table stays sequential (its partition files are
// not safe for concurrent probing).
func (e *Engine) probeAndAggregateBatches(ht relop.JoinTable, probes []*batch.Batch, q *plan.JoinQuery, agg *relop.HashAgg, threads int) error {
	if mem, isMem := ht.(*relop.MemJoinTable); isMem && threads > 1 && len(probes) > 1 {
		return e.probeAndAggregateParallel(mem, probes, q, agg, threads)
	}
	cmb := &combiner{e: e, q: q, agg: agg}
	for _, pb := range probes {
		if err := ht.ProbeBatch(pb, q.DBWireKey, cmb.add); err != nil {
			return err
		}
	}
	if err := ht.Drain(cmb.add); err != nil {
		return err
	}
	if err := cmb.flush(); err != nil {
		return err
	}
	e.rec.Add(metrics.JoinOutputTuples, cmb.output)
	return nil
}

// probeAndAggregateParallel fans the probe batches out over `threads`
// goroutines against the sealed in-memory table (the probe stage of the
// paper's multi-threaded JEN worker). Each goroutine folds its matches into a
// private combiner and partial aggregate — no locks on the hot path — and the
// privates merge into agg afterwards via MergePartial. Join output and group
// totals are independent of how batches land on threads; only the per-thread
// split (metrics.JoinProbeSplit) depends on scheduling.
func (e *Engine) probeAndAggregateParallel(mem *relop.MemJoinTable, probes []*batch.Batch, q *plan.JoinQuery, agg *relop.HashAgg, threads int) error {
	// Seal the flat table before any concurrent probe (idempotent — the
	// caller's FinishBuild already did this on the normal path).
	if err := mem.FinishBuild(); err != nil {
		return err
	}
	if threads > len(probes) {
		threads = len(probes)
	}
	cmbs := make([]*combiner, threads)
	var next atomic.Int64
	var g par.Group
	for t := 0; t < threads; t++ {
		t := t
		cmbs[t] = &combiner{e: e, q: q, agg: relop.NewHashAgg(q.GroupBy, q.Aggs)}
		g.Go(func() error {
			var rows int64
			for {
				i := int(next.Add(1)) - 1
				if i >= len(probes) {
					break
				}
				rows += int64(probes[i].Len())
				if err := mem.ProbeBatch(probes[i], q.DBWireKey, cmbs[t].add); err != nil {
					return err
				}
			}
			e.rec.AddAt(metrics.JoinProbeSplit, t, rows)
			return cmbs[t].flush()
		})
	}
	if err := g.Wait(); err != nil {
		return err
	}
	var output int64
	for _, cmb := range cmbs {
		output += cmb.output
		for _, partial := range cmb.agg.PartialRows() {
			if err := agg.MergePartial(partial); err != nil {
				return err
			}
		}
	}
	e.rec.Add(metrics.JoinOutputTuples, output)
	return nil
}

// finishHDFSAggregation ships this worker's partial aggregate to the
// designated worker; the designated worker merges all partials and sends the
// final rows to a single DB node (steps 7–9 of Figures 2–4). It always
// completes the protocol, then reports runErr.
func (e *Engine) finishHDFSAggregation(ctx context.Context, qs string, q *plan.JoinQuery, agg *relop.HashAgg, w, n int, runErr error) error {
	return e.finishAggregation(ctx, qs, q.GroupBy, q.Aggs, agg, w, n, runErr)
}

// finishAggregation is the fan-in shared by the two-table algorithms and
// the N-way executor: it only needs the grouping spec, not a full
// plan.JoinQuery.
func (e *Engine) finishAggregation(ctx context.Context, qs string, groupBy []expr.Expr, aggs []relop.AggSpec, agg *relop.HashAgg, w, n int, runErr error) error {
	// A worker that arrives here already failing must not block in the
	// aggregation fan-in waiting for partials that will never come: the
	// program context is aborted up front, so the receives below fail fast
	// while MsgError and the per-query teardown reach the peers.
	pr := newProg(ctx, &runErr)
	defer pr.release()
	ctx = pr.ctx
	pr.fail(runErr)
	desig := e.jen.DesignatedWorker()
	pb := e.newBatcher(ctx, jenName(w), qs+"partial", []string{jenName(desig)}, "", "", w)
	if runErr == nil {
		pr.fail(pb.sendRows(jenName(desig), agg.PartialRows()))
	}
	pr.fail(pb.CloseWith(runErr))

	if w == desig {
		final := relop.NewHashAgg(groupBy, aggs)
		pr.fail(e.recvRows(ctx, jenName(w), qs+"partial", n, func(r types.Row) error {
			return final.MergePartial(r)
		}))
		rows := final.FinalRows()
		e.rec.Add(metrics.AggGroups, int64(len(rows)))
		fb := e.newBatcher(ctx, jenName(w), qs+"final", []string{dbName(0)}, "", "", w)
		if runErr == nil {
			pr.fail(fb.sendRows(dbName(0), rows))
		}
		pr.fail(fb.CloseWith(runErr))
	}
	return runErr
}

// colSet returns the columns a predicate references.
func colSet(e2 interface{ Cols([]int) []int }) []int {
	if e2 == nil {
		return nil
	}
	return e2.Cols(nil)
}

// runBroadcast executes the HDFS-side broadcast join (Figure 2): every DB
// worker broadcasts its filtered partition to every JEN worker, which joins
// it against its local share of the HDFS scan — no HDFS shuffle at all.
//
// Two transfer schemes exist (Section 4.3): the default ships every DB
// worker's rows directly to all JEN workers; with Config.BroadcastRelay each
// DB worker ships to exactly one JEN worker, which relays to the rest.
func (e *Engine) runBroadcast(ctx context.Context, qs string, q *plan.JoinQuery) (*Result, error) {
	n, m := e.jen.Workers(), e.db.Workers()
	relay := e.cfg.BroadcastRelay
	tbl, err := e.db.Table(q.DBTable)
	if err != nil {
		return nil, err
	}
	scanPlan, err := e.jen.PlanScan(q.HDFSTable)
	if err != nil {
		return nil, err
	}
	need := append(append([]int(nil), q.DBProj...), colSet(q.DBPred)...)
	accessPlan := e.db.PlanAccess(tbl, q.DBPred, need)

	// Relay mode: DB worker i feeds JEN worker i%n; directSenders counts
	// the DB workers feeding each JEN worker.
	directSenders := make([]int, n)
	for i := 0; i < m; i++ {
		directSenders[i%n]++
	}

	g, ctx := par.WithContext(ctx)
	var resultRows []types.Row
	g.Go(func() error {
		rows, err := e.collectRows(ctx, dbName(0), qs+"final", 1)
		resultRows = rows
		return err
	})

	for i := 0; i < m; i++ {
		i := i
		g.Go(func() error {
			// Tuples are counted once per row, not once per copy: the
			// expensive per-row UDF read happens once, and the fan-out to
			// every JEN worker is cheap replication (bytes are counted per
			// copy by the bus and the byte counter).
			dests := e.jenNames()
			if relay {
				dests = []string{jenName(i % n)}
			}
			b := e.newBatcher(ctx, dbName(i), qs+"dbrows", dests, "", metrics.DBSentBytes, i)
			var sent int64
			err := e.db.FilterProjectBatches(tbl, i, accessPlan, q.DBProj, e.cfg.BatchRows, e.cfg.WorkerThreads, func(fb *batch.Batch) error {
				sent += int64(fb.Len())
				return b.broadcastBatch(fb, nil)
			})
			firstErr(&err, b.CloseWith(err))
			e.rec.AddAt(metrics.DBSentTuples, i, sent)
			return err
		})
	}

	for w := 0; w < n; w++ {
		w := w
		g.Go(func() error {
			me := jenName(w)
			var runErr error
			bud := e.budget(qs)
			// Build the hash table from the broadcast T' first: local joins
			// need the whole filtered database table.
			ht := relop.NewHashTable(q.DBWireKey)
			if relay {
				firstErr(&runErr, e.broadcastRelayRecv(ctx, qs, me, w, n, directSenders[w], ht))
			} else {
				firstErr(&runErr, e.recvBatches(ctx, me, qs+"dbrows", m, func(b *batch.Batch) error {
					return ht.InsertBatch(b)
				}))
			}
			e.rec.AddAt(metrics.JoinBuildTuples, w, ht.Len())
			charged := chargeJoinBuild(bud, ht.Len(), len(q.DBProj))
			defer bud.Release(charged)

			// Scan and probe in the pipeline; partial aggregation inline.
			// Probe rows never leave the scan batch: the wire projection is
			// materialized into scratch only for rows with a non-empty bucket.
			// Morsel workers probe the sealed table lock-free and serialize
			// only on the combiner; totals are independent of the interleaving.
			agg := relop.NewHashAgg(q.GroupBy, q.Aggs)
			agg.SetBudget(bud)
			defer func() { bud.Release(agg.MemBytes()) }()
			cmb := &combiner{e: e, q: q, agg: agg}
			var cmbMu sync.Mutex
			scanKey := q.HDFSWire[q.HDFSWireKey]
			var probes atomic.Int64
			if runErr == nil {
				ht.Build() // seal before concurrent probes
				err := e.jen.ScanFilterBatches(jen.ScanSpec{
					Plan: scanPlan, Worker: w,
					Proj: q.HDFSScanProj, Pred: q.HDFSPred, Pruner: q.Pruner(),
					Threads: e.cfg.WorkerThreads,
					Mem:     bud,
				}, func(sb *batch.Batch) error {
					probes.Add(int64(sb.Len()))
					keys := sb.Col(scanKey)
					var wire types.Row
					return sb.Each(func(i int) error {
						bucket := ht.Probe(keys[i].Int())
						if len(bucket) == 0 {
							return nil
						}
						if cap(wire) < len(q.HDFSWire) {
							wire = make(types.Row, len(q.HDFSWire))
						}
						for j, p := range q.HDFSWire {
							wire[j] = sb.Col(p)[i]
						}
						cmbMu.Lock()
						defer cmbMu.Unlock()
						for _, dbr := range bucket {
							if err := cmb.add(wire, dbr); err != nil {
								return err
							}
						}
						return nil
					})
				})
				firstErr(&runErr, err)
				firstErr(&runErr, cmb.flush())
			}
			e.rec.AddAt(metrics.JoinProbeTuples, w, probes.Load())
			e.rec.Add(metrics.JoinOutputTuples, cmb.output)

			return e.finishHDFSAggregation(ctx, qs, q, agg, w, n, runErr)
		})
	}

	if err := g.Wait(); err != nil {
		return nil, err
	}
	return &Result{Rows: resultRows}, nil
}

// broadcastRelayRecv implements the JEN side of the relay scheme: batches
// from this worker's DB feeders go into the hash table AND onward to every
// other JEN worker; batches relayed by peers complete the table. Receivers
// drain the relay stream in the background so relays never deadlock.
func (e *Engine) broadcastRelayRecv(ctx context.Context, qs, me string, w, n, directSenders int, ht *relop.HashTable) error {
	var runErr error
	pr := newProg(ctx, &runErr)
	defer pr.release()
	ctx = pr.ctx
	others := make([]string, 0, n-1)
	for j := 0; j < n; j++ {
		if j != w {
			others = append(others, jenName(j))
		}
	}
	// The relay drainer and the direct-stream receiver run concurrently and
	// both feed the same hash table, so inserts must be serialized.
	var htMu sync.Mutex
	insert := func(b *batch.Batch) error {
		htMu.Lock()
		defer htMu.Unlock()
		return ht.InsertBatch(b)
	}
	var bg par.Group
	bg.Go(func() error {
		err := e.recvBatches(ctx, me, qs+"relay", n-1, insert)
		pr.bgFail(err)
		return err
	})
	rb := e.newBatcher(ctx, me, qs+"relay", others, metrics.JENShuffleTuples, metrics.JENShuffleBytes, w)
	pr.fail(e.recvBatches(ctx, me, qs+"dbrows", directSenders, func(b *batch.Batch) error {
		if err := insert(b); err != nil {
			return err
		}
		return rb.broadcastBatch(b, nil)
	}))
	pr.fail(rb.CloseWith(runErr))
	pr.fail(bg.Wait())
	return runErr
}

// wrapBloom adapts a (possibly nil) Bloom filter to the scan's KeyFilter.
func wrapBloom(bf *bloom.Filter) jen.KeyFilter {
	if bf == nil {
		return nil
	}
	return jen.BloomKeyFilter{F: bf}
}
