package main

import (
	"fmt"
	"sort"
	"strings"

	hybridwh "hybridwh"
	"hybridwh/internal/core"
	"hybridwh/internal/datagen"
	"hybridwh/internal/types"
)

// A workload is one warehouse configuration, its generated data and the
// query rotation its clients replay in a closed loop.
type workload struct {
	name string
	// clients is the number of closed-loop client goroutines. served
	// workloads submit through the scheduler (Submit/Wait); the others
	// call Query serially.
	clients int
	served  bool
	// open assembles and loads the warehouse for a seed. shrink divides
	// every row count (1 = full size; tests use larger values).
	open func(seed int64, shrink int64, spillDir string) (*hybridwh.Warehouse, error)
	// queries lists the distinct queries, in the order clients rotate
	// through them.
	queries func(w *hybridwh.Warehouse) ([]*query, error)
}

// query is one distinct query of a workload's rotation, with the reference
// rows every execution is compared against.
type query struct {
	label string
	sql   string
	// Two-table queries carry the paper's cardinality hint. hint == 0
	// marks a star query.
	hint   int64
	sigmaL float64 // hint / |L|, the advisor's σ_L derived from the hint
	// star is the generated dataset a star query's reference is computed
	// from; cut is its dimension cut.
	star *datagen.Star
	cut  int64
	// alg is the algorithm the advisor chose on the warm-up pass
	// (two-table queries), forced by the traced run's RunPlan.
	alg core.Algorithm
	ref []string
}

func (q *query) options() []hybridwh.Option {
	if q.star != nil {
		return nil
	}
	return []hybridwh.Option{hybridwh.WithCardHint(q.hint)}
}

// paperKeys is the paper's 16M join keys at 1/40000 scale.
const paperKeys = 400

// paperData is the Section 5 dataset at 1/40000 of the paper's row counts.
// The generator places keys in predicate space by seed mod Keys; a
// multiple of Keys keeps that placement fixed, so every seed selects the
// same share of Zipf-hot keys and only the rows themselves vary.
func paperData(seed, shrink int64, zipf float64) datagen.Data {
	return datagen.Data{
		TRows: 40_000 / shrink, LRows: 375_000 / shrink, Keys: paperKeys,
		Seed: seed * paperKeys, DateDays: 30, Groups: 1000, ZipfS: zipf,
	}
}

// paperScale is the cost model's and advisor's scale divisor matching
// paperData.
const paperScale = 40_000

// servedBudget is served-skewed's global operator-memory budget, set below
// the build-side footprint of its scan queries so their joins spill.
const servedBudget = 2 << 20

// starData is the star/snowflake dataset: a 500k-row fact table on HDFS
// and three dimensions in the database, customer snowflaked to region.
// Every dimension has at least 1000 rows, so the share a cut admits varies
// by only a few percent from seed to seed.
func starData(seed, shrink int64) datagen.Star {
	return datagen.Star{
		FactRows: 500_000 / shrink,
		Seed:     seed,
		Groups:   10,
		Dims: []datagen.DimSpec{
			{Name: "customer", Rows: 5000, Sub: &datagen.DimSpec{Name: "region", Rows: 1000}},
			{Name: "product", Rows: 2000},
			{Name: "store", Rows: 1000},
		},
	}
}

// cell is a selectivity point of the paper's experiments.
type cell struct {
	label string
	sel   datagen.Selectivities
}

// paperCells rotates over Table 1 and Figs 8–11. With the cardinality hint
// the advisor picks zigzag, broadcast and db(BF) across them.
var paperCells = []cell{
	{"table1", datagen.Selectivities{SigmaT: 0.1, SigmaL: 0.4, ST: 0.2, SL: 0.1}},
	{"fig8a", datagen.Selectivities{SigmaT: 0.1, SigmaL: 0.2, ST: 0.1, SL: 0.1}},
	{"fig9a", datagen.Selectivities{SigmaT: 0.1, SigmaL: 0.4, ST: 0.5, SL: 0.4}},
	// σT is half of Fig 10(a)'s 0.001, so that the histogram's estimate
	// of T' stays under the advisor's 25 MiB broadcast threshold.
	{"fig10-bcast", datagen.Selectivities{SigmaT: 0.0005, SigmaL: 0.2, ST: 0.5, SL: 0.1}},
	{"fig10a-sel", datagen.Selectivities{SigmaT: 0.001, SigmaL: 0.01, ST: 0.5, SL: 0.1}},
	{"fig11a", datagen.Selectivities{SigmaT: 0.05, SigmaL: 0.001, ST: 0.3, SL: 0.05}},
	{"fig11b", datagen.Selectivities{SigmaT: 0.1, SigmaL: 0.01, ST: 0.3, SL: 0.1}},
	{"fig8b", datagen.Selectivities{SigmaT: 0.2, SigmaL: 0.4, ST: 0.1, SL: 0.2}},
}

// servedCells are served-skewed's three scan cells and one point cell.
var servedCells = []cell{
	{"scan-table1", datagen.Selectivities{SigmaT: 0.1, SigmaL: 0.4, ST: 0.2, SL: 0.1}},
	{"scan-fig8a", datagen.Selectivities{SigmaT: 0.1, SigmaL: 0.2, ST: 0.1, SL: 0.1}},
	{"scan-fig8b", datagen.Selectivities{SigmaT: 0.2, SigmaL: 0.4, ST: 0.1, SL: 0.2}},
	{"point-fig11a", datagen.Selectivities{SigmaT: 0.05, SigmaL: 0.001, ST: 0.3, SL: 0.05}},
}

// starCuts are the dimension cuts "attr < cut": selective, middle and
// unselective.
var starCuts = []int64{100, 500, 900}

var workloads = []*workload{
	{
		name:    "paper-mix",
		clients: 1,
		open: func(seed, shrink int64, _ string) (*hybridwh.Warehouse, error) {
			return openPaper(hybridwh.Config{Seed: seed, Scale: paperScale}, paperData(seed, shrink, 0))
		},
		queries: func(w *hybridwh.Warehouse) ([]*query, error) { return paperQueries(w, paperCells) },
	},
	{
		name:    "star-snowflake",
		clients: 1,
		open: func(seed, shrink int64, _ string) (*hybridwh.Warehouse, error) {
			w, err := hybridwh.Open(hybridwh.Config{Seed: seed, Scale: paperScale})
			if err != nil {
				return nil, err
			}
			if err := w.LoadStar(starData(seed, shrink)); err != nil {
				return nil, closeAfter(w, err)
			}
			return w, nil
		},
		queries: starQueries,
	},
	{
		name:    "served-skewed",
		clients: 2,
		served:  true,
		open: func(seed, shrink int64, spillDir string) (*hybridwh.Warehouse, error) {
			return openPaper(hybridwh.Config{
				Seed: seed, Scale: paperScale, Format: "text",
				MemBudgetBytes: servedBudget, SpillDir: spillDir,
				SkewThreshold: 0.05, AdaptiveSwitch: true,
			}, paperData(seed, shrink, 1.1))
		},
		queries: func(w *hybridwh.Warehouse) ([]*query, error) { return paperQueries(w, servedCells) },
	},
}

func workloadByName(name string) (*workload, error) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, nil
		}
	}
	var names []string
	for _, wl := range workloads {
		names = append(names, wl.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

func openPaper(cfg hybridwh.Config, data datagen.Data) (*hybridwh.Warehouse, error) {
	w, err := hybridwh.Open(cfg)
	if err != nil {
		return nil, err
	}
	if err := w.LoadPaperData(data); err != nil {
		return nil, closeAfter(w, err)
	}
	return w, nil
}

// closeAfter closes w after a failed load, keeping the load error first.
func closeAfter(w *hybridwh.Warehouse, err error) error {
	if cerr := w.Close(); cerr != nil {
		return fmt.Errorf("%w (close: %v)", err, cerr)
	}
	return err
}

func paperQueries(w *hybridwh.Warehouse, cells []cell) ([]*query, error) {
	lRows := w.Data().LRows
	var qs []*query
	for _, c := range cells {
		wl, _, err := datagen.SolveNearest(w.Data(), c.sel)
		if err != nil {
			return nil, fmt.Errorf("cell %s: %w", c.label, err)
		}
		hint := hybridwh.ExpectedLPrimeRows(wl)
		qs = append(qs, &query{
			label:  c.label,
			sql:    hybridwh.PaperQuerySQL(wl),
			hint:   hint,
			sigmaL: float64(hint) / float64(lRows),
		})
	}
	return qs, nil
}

func starQueries(w *hybridwh.Warehouse) ([]*query, error) {
	s := w.Star()
	var qs []*query
	for _, cut := range starCuts {
		qs = append(qs, &query{
			label: fmt.Sprintf("cut%d", cut),
			sql:   starSQL(s, cut),
			star:  &s,
			cut:   cut,
		})
	}
	return qs, nil
}

// starSQL filters every dimension, snowflake sub-dimensions included, at
// "attr < cut" and groups the fact rows by grp.
func starSQL(s datagen.Star, cut int64) string {
	sql := "select f.grp, count(*), sum(f.measure) from fact f"
	var where []string
	for _, d := range s.Dims {
		a := d.Name[:1] + "_"
		sql += fmt.Sprintf(" join %s %s on f.fk_%s = %s.key", d.Name, a, d.Name, a)
		where = append(where, fmt.Sprintf("%s.attr < %d", a, cut))
		if d.Sub != nil {
			sa := d.Sub.Name[:1] + "s_"
			sql += fmt.Sprintf(" join %s %s on %s.fk_%s = %s.key", d.Sub.Name, sa, a, d.Sub.Name, sa)
			where = append(where, fmt.Sprintf("%s.attr < %d", sa, cut))
		}
	}
	return sql + " where " + strings.Join(where, " and ") + " group by f.grp"
}

// referenceAlg picks the algorithm a two-table reference runs with: one
// the plan under test did not use.
func referenceAlg(tested core.Algorithm) core.Algorithm {
	if tested == core.Repartition {
		return core.DBSide
	}
	return core.Repartition
}

// computeReference fills q.ref by a path that does not use the plan under
// test: star queries by a hash join over the regenerated rows, two-table
// queries with a different algorithm forced.
func computeReference(w *hybridwh.Warehouse, q *query) error {
	if q.star != nil {
		rows, err := starReference(*q.star, q.cut)
		if err != nil {
			return err
		}
		q.ref = canonical(rows)
		return nil
	}
	res, err := w.Query(q.sql, hybridwh.WithAlgorithm(referenceAlg(q.alg)), hybridwh.WithCardHint(q.hint))
	if err != nil {
		return fmt.Errorf("reference %s: %w", q.label, err)
	}
	q.ref = canonical(res.Rows)
	return nil
}

// starReference evaluates a star query directly over the generated rows:
// every dimension (and its snowflake sub-dimension) passing attr < cut
// admits its keys, and fact rows whose foreign keys are all admitted are
// counted and summed per grp.
func starReference(s datagen.Star, cut int64) ([]types.Row, error) {
	pass := map[string]map[int64]bool{}
	subFK := map[string]map[int64]int64{}
	for _, d := range s.AllDims() {
		keys := map[int64]bool{}
		fks := map[int64]int64{}
		err := s.GenDim(d.Name, func(r types.Row) error {
			if r[1].Int() < cut {
				keys[r[0].Int()] = true
			}
			if d.Sub != nil {
				fks[r[0].Int()] = r[2].Int()
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		pass[d.Name] = keys
		subFK[d.Name] = fks
	}
	type agg struct{ count, sum int64 }
	groups := map[int64]*agg{}
	nd := len(s.Dims)
	err := s.GenFact(func(r types.Row) error {
		for i, d := range s.Dims {
			k := r[i].Int()
			if !pass[d.Name][k] {
				return nil
			}
			if d.Sub != nil && !pass[d.Sub.Name][subFK[d.Name][k]] {
				return nil
			}
		}
		g := r[nd+1].Int()
		a := groups[g]
		if a == nil {
			a = &agg{}
			groups[g] = a
		}
		a.count++
		a.sum += r[nd].Int()
		return nil
	})
	if err != nil {
		return nil, err
	}
	var rows []types.Row
	for g, a := range groups {
		rows = append(rows, types.Row{types.Int64(g), types.Int64(a.count), types.Int64(a.sum)})
	}
	return rows, nil
}

// canonical renders rows as sorted strings, so results compare as
// multisets regardless of the order groups arrive in.
func canonical(rows []types.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		parts := make([]string, len(r))
		for j, v := range r {
			parts[j] = v.Format()
		}
		out[i] = strings.Join(parts, "|")
	}
	sort.Strings(out)
	return out
}

// sameRows reports whether got matches the reference row for row.
func sameRows(got []types.Row, ref []string) bool {
	c := canonical(got)
	if len(c) != len(ref) {
		return false
	}
	for i := range c {
		if c[i] != ref[i] {
			return false
		}
	}
	return true
}
