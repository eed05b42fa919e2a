package hybridwh

import (
	"math"
	"reflect"
	"testing"

	"hybridwh/internal/expr"
	"hybridwh/internal/format"
	"hybridwh/internal/metrics"
	"hybridwh/internal/plan"
	"hybridwh/internal/types"
)

const (
	// sampleTableRows rows across 4 files: each file is one contiguous
	// 2000-row region in a single HDFS block, one file per JEN worker — so
	// any one worker's holdings are a single region of the table.
	sampleTableRows = 8000
	// sampleBudget covers the whole table when strided (8000/4 = 2000 rows
	// per worker = that worker's full holdings), so the strided estimate is
	// placement-independent and exact.
	sampleBudget = sampleTableRows
)

// openClusteredSample loads an HDFS table whose rows are deliberately
// clustered by file: the predicate column v passes (v=1) only in files 0–1
// and the hot join key 7 lives only in files 2–3. Every statistic is
// therefore regional — any estimator that samples a single worker's blocks
// sees a biased slice of the table.
func openClusteredSample(t *testing.T) *Warehouse {
	t.Helper()
	w, err := Open(Config{DBWorkers: 3, JENWorkers: 4, HDFSFiles: 4, BlockSize: 64 << 10, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })

	pt := types.NewSchema(types.C("k", types.KindInt64))
	ev := types.NewSchema(
		types.C("uid", types.KindInt64),
		types.C("v", types.KindInt32),
	)
	var ptRows, evRows []types.Row
	for i := 0; i < 64; i++ {
		ptRows = append(ptRows, types.Row{types.Int64(int64(i))})
	}
	const n = sampleTableRows
	for i := 0; i < n; i++ {
		// CreateHDFSTable deals rows round-robin across the 4 files, so
		// clustering by i%4 makes files 0–1 all-pass / cold and files 2–3
		// all-fail / hot. Cold keys 100.. are disjoint from the hot key so
		// the hot share is exactly 0.5.
		uid, v := int64(100+i%64), int32(0)
		if i%4 < 2 {
			v = 1 // σ_L(v ≥ 1) is exactly 0.5, confined to files 0–1
		} else {
			uid = 7 // the hot key holds half of L, confined to files 2–3
		}
		evRows = append(evRows, types.Row{types.Int64(uid), types.Int32(v)})
	}
	err = w.LoadTables(
		TableDef{Name: "pt", Schema: pt}, SliceSource(ptRows),
		TableDef{Name: "ev", Schema: ev}, SliceSource(evRows),
	)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// worker0Estimate reproduces the pre-fix estimators' sampling loop — a
// bounded scan of worker 0's blocks only — so the test can compare the old
// bias against the strided estimate on identical data.
func worker0Estimate(t *testing.T, w *Warehouse, jq *plan.JoinQuery, sampleRows int,
	hit func(r types.Row) (bool, error)) float64 {
	t.Helper()
	scanPlan, err := w.jenc.PlanScan(jq.HDFSTable)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := w.jenc.ScanPrefix(scanPlan, 0, sampleRows)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		return 1
	}
	var passed int64
	for _, r := range rows {
		ok, err := hit(r.Project(jq.HDFSScanProj))
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			passed++
		}
	}
	return float64(passed) / float64(len(rows))
}

// TestSamplingStridesAcrossWorkers is the regression test for the
// single-worker sampling bias: EstimateSigmaL and EstimateHotKeyShare used
// to scan Worker 0 only, so with position-clustered data (locality-aware
// block assignment keeps file runs together) the sample reflected one
// worker's blocks, not the table. The fix strides the budget across every
// JEN worker. Asserted two ways: the per-worker scan counters prove all
// workers were read, and on clustered data the strided estimate is closer
// to ground truth than the old worker-0-only loop on the same table.
func TestSamplingStridesAcrossWorkers(t *testing.T) {
	w := openClusteredSample(t)

	jq, err := w.Plan("select count(*) from pt, ev where pt.k = ev.uid and ev.v >= 1")
	if err != nil {
		t.Fatal(err)
	}

	// Stride proof: every worker's scan counter moves during one estimate.
	// The budget covers each worker's full holdings, so the strided sample
	// is the whole table and the estimate is exact no matter how the
	// locality-aware placement dealt the file runs; the worker-0-only loop
	// under the same budget still reads one worker's slice.
	w.rec.Reset()
	est, err := w.EstimateSigmaL(jq, sampleBudget)
	if err != nil {
		t.Fatal(err)
	}
	scanned := w.rec.Vector(metrics.JENScanRows)
	if len(scanned) < w.jenc.Workers() {
		t.Fatalf("scan counters cover %d workers, want %d: %v", len(scanned), w.jenc.Workers(), scanned)
	}
	for wk, rows := range scanned[:w.jenc.Workers()] {
		if rows == 0 {
			t.Errorf("worker %d scanned 0 rows during sampling: sample is not strided (%v)", wk, scanned)
		}
	}

	// Bias proof, σ_L: truth is 0.5 (front-loaded). The worker-0 loop reads
	// only worker 0's file runs; the strided estimate must not be further
	// from truth, and must not collapse to a degenerate all-pass/all-fail
	// reading of one region.
	const truthSigma = 0.5
	old := worker0Estimate(t, w, jq, sampleBudget, func(r types.Row) (bool, error) {
		return expr.EvalPred(jq.HDFSPred, r)
	})
	t.Logf("σ_L: truth %.3f, strided %.3f, worker-0-only %.3f", truthSigma, est, old)
	if math.Abs(est-truthSigma) > 0.05 {
		t.Errorf("strided σ_L %.3f, want ≈%.1f (full-coverage sample is exact)", est, truthSigma)
	}
	if math.Abs(est-truthSigma) > math.Abs(old-truthSigma) {
		t.Errorf("strided σ_L %.3f is further from truth %.1f than worker-0-only %.3f", est, truthSigma, old)
	}

	// Bias proof, hot-key share: key 7 holds half of L but only in the back
	// half of the file — invisible from a front-region worker, dominant from
	// a back-region one. Same comparative assertion on an all-pass plan.
	jqAll, err := w.Plan("select count(*) from pt, ev where pt.k = ev.uid and ev.v >= 0")
	if err != nil {
		t.Fatal(err)
	}
	const truthHot = 0.5
	hot, err := w.EstimateHotKeyShare(jqAll, sampleBudget)
	if err != nil {
		t.Fatal(err)
	}
	keyIdx := jqAll.HDFSWire[jqAll.HDFSWireKey]
	hotCounts := map[int64]int64{}
	var hotPassed float64
	oldHot := 0.0
	worker0Estimate(t, w, jqAll, sampleBudget, func(r types.Row) (bool, error) {
		hotPassed++
		hotCounts[r[keyIdx].Int()]++
		return true, nil
	})
	for _, c := range hotCounts {
		if s := float64(c) / hotPassed; s > oldHot {
			oldHot = s
		}
	}
	t.Logf("hot share: truth %.3f, strided %.3f, worker-0-only %.3f", truthHot, hot, oldHot)
	if math.Abs(hot-truthHot) > 0.05 {
		t.Errorf("strided hot share %.3f, want ≈%.1f (full-coverage sample is exact)", hot, truthHot)
	}
	if math.Abs(hot-truthHot) > math.Abs(oldHot-truthHot) {
		t.Errorf("strided hot share %.3f is further from truth %.1f than worker-0-only %.3f", hot, truthHot, oldHot)
	}
}

// TestAdvisorSampleDrawnOnce checks the sample cache: once a table's sample
// is drawn, an estimate with a different predicate and projection decodes
// nothing, and still equals what a fresh warehouse computes for it.
func TestAdvisorSampleDrawnOnce(t *testing.T) {
	w := openLoaded(t, Config{})
	defer w.Close()
	jq, err := w.Plan(PaperQuerySQL(table1Workload(t, w)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.EstimateSigmaL(jq, 0); err != nil {
		t.Fatal(err)
	}

	// Ships only joinKey and filters on indPred: a different projection
	// and predicate from the paper query's.
	const sql = "select count(*) from T, L where T.joinKey = L.joinKey and L.indPred <= 300"
	estimate := func(w *Warehouse) (sigma, hot float64) {
		t.Helper()
		jq, err := w.Plan(sql)
		if err != nil {
			t.Fatal(err)
		}
		if sigma, err = w.EstimateSigmaL(jq, 0); err != nil {
			t.Fatal(err)
		}
		if hot, err = w.EstimateHotKeyShare(jq, 0); err != nil {
			t.Fatal(err)
		}
		return sigma, hot
	}
	w.rec.Reset()
	sigma, hot := estimate(w)
	if rows := w.rec.Get(metrics.JENScanRows); rows != 0 {
		t.Errorf("estimates after the first draw scanned %d rows, want 0", rows)
	}
	w.sampleMu.Lock()
	draws := w.sampleDraws
	w.sampleMu.Unlock()
	if draws != 1 {
		t.Errorf("%d sample draws, want 1", draws)
	}

	fresh := openLoaded(t, Config{})
	defer fresh.Close()
	wantSigma, wantHot := estimate(fresh)
	if sigma != wantSigma || hot != wantHot {
		t.Errorf("cached estimates (σ_L %.4f, hot %.4f) differ from a fresh warehouse's (%.4f, %.4f)",
			sigma, hot, wantSigma, wantHot)
	}
	if sigma <= 0 || sigma >= 1 {
		t.Errorf("σ_L(indPred <= 300) = %.4f; the predicate should pass some rows but not all", sigma)
	}
}

// TestAdvisorSampleDeterministic checks the first draw: identically seeded
// warehouses draw identical samples, and on paper data no worker reads past
// its first row group (HWC) or split (text).
func TestAdvisorSampleDeterministic(t *testing.T) {
	for _, f := range []string{format.HWCName, format.TextName} {
		t.Run(f, func(t *testing.T) {
			draw := func() ([]types.Row, []int64) {
				w := openLoaded(t, Config{Format: f, Seed: 5})
				defer w.Close()
				w.rec.Reset()
				s, err := w.tableSample("L", sampleRowsDefault)
				if err != nil {
					t.Fatal(err)
				}
				return s, w.rec.Vector(metrics.JENScanRows)
			}
			a, scanned := draw()
			b, _ := draw()
			if len(a) == 0 || !reflect.DeepEqual(a, b) {
				t.Fatalf("identically seeded warehouses drew different samples (%d vs %d rows)", len(a), len(b))
			}
			if len(scanned) != 4 {
				t.Fatalf("scan counters cover %d workers, want 4: %v", len(scanned), scanned)
			}
			for wk, rows := range scanned {
				if rows == 0 || rows > 2048 {
					t.Errorf("worker %d charged %d scan rows, want 1..2048 (one row group)", wk, rows)
				}
			}
		})
	}
}
