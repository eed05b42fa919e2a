package hybridwh

import (
	"hybridwh/internal/expr"
	"hybridwh/internal/plan"
	"hybridwh/internal/types"
)

// sampleRowsDefault bounds the advisor's sample of L when it has no
// cardinality hint.
const sampleRowsDefault = 2000

// sampleKey names one cached advisor sample: an HDFS table and the row
// budget it was drawn with.
type sampleKey struct {
	table string
	rows  int
}

// sampleScan feeds the advisor's bounded sample of jq's HDFS table to row,
// projected through jq.HDFSScanProj (r is valid only during the call).
//
// The sample is drawn once per (table, budget) and reused by every later
// estimate, whatever its predicate or projection, so only the first advise
// on a table decodes anything. No invalidation is needed: tables are
// immutable once loaded (LoadPaperData, LoadTables and LoadStar all reject
// a second load). The draw is lazy, on the first advise rather than at load
// time, so warehouses that never sample pay nothing.
//
// The draw strides across *every* JEN worker instead of reading worker 0's
// blocks alone. Block placement is not value-independent — locality-aware
// assignment groups file runs, and with clustered or range-partitioned data
// worker 0's slice is a biased picture of L (a hot key resident in worker
// 0's blocks looks cluster-dominant; one elsewhere is invisible). The
// per-worker budget splits sampleRows evenly so the total stays bounded.
// Each worker's share is the prefix of its work units in plan order
// (jen.ScanPrefix), so identically seeded warehouses draw identical samples.
func (w *Warehouse) sampleScan(jq *plan.JoinQuery, sampleRows int, row func(r types.Row) error) error {
	if sampleRows <= 0 {
		sampleRows = sampleRowsDefault
	}
	sample, err := w.tableSample(jq.HDFSTable, sampleRows)
	if err != nil {
		return err
	}
	proj := make(types.Row, len(jq.HDFSScanProj))
	for _, r := range sample {
		if jq.HDFSScanProj != nil {
			for i, c := range jq.HDFSScanProj {
				proj[i] = r[c]
			}
			r = proj
		}
		if err := row(r); err != nil {
			return err
		}
	}
	return nil
}

// tableSample returns the cached full-width sample of table, drawing it on
// first use. The mutex is held across the draw, so concurrent first
// advises (Submit resolves advice on the caller's goroutine) share one
// draw. The draw charges each worker's jen.scan counters once; serial
// queries reset counters before the query proper runs.
func (w *Warehouse) tableSample(table string, sampleRows int) ([]types.Row, error) {
	w.sampleMu.Lock()
	defer w.sampleMu.Unlock()
	key := sampleKey{table: table, rows: sampleRows}
	if s, ok := w.samples[key]; ok {
		return s, nil
	}
	scanPlan, err := w.jenc.PlanScan(table)
	if err != nil {
		return nil, err
	}
	workers := w.jenc.Workers()
	perWorker := sampleRows / workers
	if perWorker < 1 {
		perWorker = 1
	}
	var sample []types.Row
	for wk := 0; wk < workers; wk++ {
		rows, err := w.jenc.ScanPrefix(scanPlan, wk, perWorker)
		if err != nil {
			return nil, err
		}
		sample = append(sample, rows...)
	}
	if w.samples == nil {
		w.samples = map[sampleKey][]types.Row{}
	}
	w.samples[key] = sample
	w.sampleDraws++
	return sample, nil
}

// EstimateSigmaL estimates the HDFS-side predicate selectivity by measuring
// the pass rate over the table's bounded sample, strided across all JEN
// workers. The paper sidesteps this with a cardinality hint to the read_hdfs
// UDF; the estimator makes the advisor autonomous when no hint is available.
//
// The sample is drawn once per table through the real scan path, reading at
// most one row group or split per worker; later estimates decode nothing.
func (w *Warehouse) EstimateSigmaL(jq *plan.JoinQuery, sampleRows int) (float64, error) {
	var scanned, passed int64
	// Predicate evaluation happens here rather than in the scan so both the
	// pass and fail counts are visible.
	err := w.sampleScan(jq, sampleRows, func(r types.Row) error {
		scanned++
		ok, err := expr.EvalPred(jq.HDFSPred, r)
		if err != nil {
			return err
		}
		if ok {
			passed++
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	if scanned == 0 {
		return 1, nil
	}
	return float64(passed) / float64(scanned), nil
}

// EstimateHotKeyShare estimates the share of L' held by its single most
// frequent join key, by counting key frequencies over the rows of the
// table's cached sample that pass the HDFS predicate. The
// advisor uses it to detect shuffle-hostile skew before committing to a hash
// repartition; 0 means the sample saw no qualifying rows.
func (w *Warehouse) EstimateHotKeyShare(jq *plan.JoinQuery, sampleRows int) (float64, error) {
	keyIdx := jq.HDFSWire[jq.HDFSWireKey]
	counts := map[int64]int64{}
	var passed int64
	err := w.sampleScan(jq, sampleRows, func(r types.Row) error {
		ok, err := expr.EvalPred(jq.HDFSPred, r)
		if err != nil {
			return err
		}
		if ok {
			passed++
			counts[r[keyIdx].Int()]++
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	if passed == 0 {
		return 0, nil
	}
	var hottest int64
	for _, c := range counts {
		if c > hottest {
			hottest = c
		}
	}
	return float64(hottest) / float64(passed), nil
}
