package relop

import (
	"math"
	"testing"

	"hybridwh/internal/expr"
	"hybridwh/internal/types"
)

func TestHashTableBuildProbe(t *testing.T) {
	h := NewHashTable(0)
	rows := []types.Row{
		{types.Int32(1), types.String("a")},
		{types.Int32(2), types.String("b")},
		{types.Int32(1), types.String("c")},
	}
	for _, r := range rows {
		if err := h.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	if h.Len() != 3 {
		t.Errorf("Len = %d", h.Len())
	}
	if got := h.Probe(1); len(got) != 2 {
		t.Errorf("Probe(1) = %v", got)
	}
	if got := h.Probe(9); got != nil {
		t.Errorf("Probe(9) = %v", got)
	}
	if err := h.Insert(types.Row{}); err == nil {
		t.Error("key out of range: want error")
	}
}

func TestHashTableJoin(t *testing.T) {
	// Build side: (joinKey, name). Probe side: (uid, joinKey).
	jt := NewMemJoinTable(0)
	for _, r := range []types.Row{
		{types.Int32(1), types.String("a")},
		{types.Int32(1), types.String("b")},
		{types.Int32(2), types.String("c")},
	} {
		if err := jt.InsertBatch(rowBatch(r)); err != nil {
			t.Fatal(err)
		}
	}
	if err := jt.FinishBuild(); err != nil {
		t.Fatal(err)
	}
	// join probes uid 100 on key 1 and keeps the combined rows that pass post.
	join := func(post expr.Expr) ([]types.Row, error) {
		var got []types.Row
		err := jt.ProbeBatch(rowBatch(types.Row{types.Int64(100), types.Int32(1)}), 1, func(b, p types.Row) error {
			combined := b.Concat(p)
			ok, err := expr.EvalPred(post, combined)
			if ok {
				got = append(got, combined)
			}
			return err
		})
		return got, err
	}
	got, err := join(nil)
	if err != nil || len(got) != 2 {
		t.Fatalf("Join: %d matches, %v", len(got), err)
	}
	// Combined layout: build cols then probe cols.
	if got[0][1].Str() != "a" || got[0][2].Int() != 100 {
		t.Errorf("combined row = %v", got[0])
	}
	// Post-join predicate filters matches: keep only name = "b".
	post := expr.NewCmp(expr.EQ, expr.NewCol(1, "name", types.KindString), expr.NewLit(types.String("b")))
	if got, err := join(post); err != nil || len(got) != 1 {
		t.Errorf("post-join filter: %d matches, %v", len(got), err)
	}
	// Probe key out of range.
	if err := jt.ProbeBatch(rowBatch(types.Row{}), 3, nil); err == nil {
		t.Error("probe key out of range: want error")
	}
}

func aggFixture() ([]expr.Expr, []AggSpec) {
	groupBy := []expr.Expr{expr.NewCol(0, "g", types.KindInt32)}
	aggs := []AggSpec{
		{Kind: AggCount, Name: "cnt"},
		{Kind: AggSum, Input: expr.NewCol(1, "v", types.KindInt64), Name: "sum"},
		{Kind: AggMin, Input: expr.NewCol(1, "v", types.KindInt64), Name: "min"},
		{Kind: AggMax, Input: expr.NewCol(1, "v", types.KindInt64), Name: "max"},
		{Kind: AggAvg, Input: expr.NewCol(1, "v", types.KindInt64), Name: "avg"},
	}
	return groupBy, aggs
}

func addAll(t *testing.T, h *HashAgg, rows []types.Row) {
	t.Helper()
	for _, r := range rows {
		if err := h.Add(r); err != nil {
			t.Fatal(err)
		}
	}
}

func TestHashAggSingleNode(t *testing.T) {
	groupBy, aggs := aggFixture()
	h := NewHashAgg(groupBy, aggs)
	addAll(t, h, []types.Row{
		{types.Int32(1), types.Int64(10)},
		{types.Int32(1), types.Int64(20)},
		{types.Int32(2), types.Int64(5)},
	})
	rows := h.FinalRows()
	if len(rows) != 2 || h.NumGroups() != 2 {
		t.Fatalf("groups = %d", len(rows))
	}
	g1 := rows[0]
	if g1[0].Int() != 1 || g1[1].Int() != 2 || g1[2].Int() != 30 || g1[3].Int() != 10 || g1[4].Int() != 20 {
		t.Errorf("group 1 = %v", g1)
	}
	if math.Abs(g1[5].Float()-15) > 1e-9 {
		t.Errorf("avg = %v", g1[5].Float())
	}
}

// TestPartialFinalEquivalence is the distributed-aggregation contract: any
// partitioning of the input across workers, merged at a designated worker,
// must equal single-node aggregation.
func TestPartialFinalEquivalence(t *testing.T) {
	groupBy, aggs := aggFixture()
	var all []types.Row
	for i := 0; i < 300; i++ {
		all = append(all, types.Row{types.Int32(int32(i % 7)), types.Int64(int64(i*13%101 - 50))})
	}
	single := NewHashAgg(groupBy, aggs)
	addAll(t, single, all)
	want := single.FinalRows()

	for _, nworkers := range []int{1, 2, 5, 30} {
		parts := make([]*HashAgg, nworkers)
		for w := range parts {
			parts[w] = NewHashAgg(groupBy, aggs)
		}
		for i, r := range all {
			if err := parts[i%nworkers].Add(r); err != nil {
				t.Fatal(err)
			}
		}
		final := NewHashAgg(groupBy, aggs)
		for _, p := range parts {
			for _, pr := range p.PartialRows() {
				if err := final.MergePartial(pr); err != nil {
					t.Fatal(err)
				}
			}
		}
		got := final.FinalRows()
		if len(got) != len(want) {
			t.Fatalf("nworkers=%d: %d groups, want %d", nworkers, len(got), len(want))
		}
		for i := range want {
			for c := range want[i] {
				a, b := got[i][c], want[i][c]
				if a.K == types.KindFloat64 {
					if math.Abs(a.Float()-b.Float()) > 1e-9 {
						t.Errorf("nworkers=%d row %d col %d: %v != %v", nworkers, i, c, a.Float(), b.Float())
					}
				} else if !types.Equal(a, b) {
					t.Errorf("nworkers=%d row %d col %d: %v != %v", nworkers, i, c, a, b)
				}
			}
		}
	}
}

func TestHashAggNullHandling(t *testing.T) {
	groupBy := []expr.Expr{expr.NewCol(0, "g", types.KindInt32)}
	aggs := []AggSpec{
		{Kind: AggCount, Input: expr.NewCol(1, "v", types.KindInt64), Name: "cnt_v"},
		{Kind: AggSum, Input: expr.NewCol(1, "v", types.KindInt64), Name: "sum"},
		{Kind: AggMin, Input: expr.NewCol(1, "v", types.KindInt64), Name: "min"},
		{Kind: AggAvg, Input: expr.NewCol(1, "v", types.KindInt64), Name: "avg"},
	}
	h := NewHashAgg(groupBy, aggs)
	addAll(t, h, []types.Row{
		{types.Int32(1), types.Null},
		{types.Int32(1), types.Int64(10)},
	})
	rows := h.FinalRows()
	// COUNT(v) skips nulls; SUM ignores them; MIN ignores them; AVG divides
	// by non-null count.
	if rows[0][1].Int() != 1 || rows[0][2].Int() != 10 || rows[0][3].Int() != 10 || rows[0][4].Float() != 10 {
		t.Errorf("null handling: %v", rows[0])
	}
	// All-null group yields null AVG and MIN.
	h2 := NewHashAgg(groupBy, aggs)
	addAll(t, h2, []types.Row{{types.Int32(2), types.Null}})
	r2 := h2.FinalRows()[0]
	if !r2[3].IsNull() || !r2[4].IsNull() {
		t.Errorf("all-null group: %v", r2)
	}
}

func TestMergePartialValidation(t *testing.T) {
	groupBy, aggs := aggFixture()
	h := NewHashAgg(groupBy, aggs)
	if err := h.MergePartial(types.Row{types.Int32(1)}); err == nil {
		t.Error("short partial row: want error")
	}
}

func TestHashAggErrors(t *testing.T) {
	// Erroring group-by expression propagates.
	h := NewHashAgg([]expr.Expr{expr.NewCol(5, "missing", types.KindInt32)}, nil)
	if err := h.Add(types.Row{types.Int32(1)}); err == nil {
		t.Error("bad group-by: want error")
	}
	// Erroring aggregate input propagates.
	h2 := NewHashAgg(
		[]expr.Expr{expr.NewCol(0, "g", types.KindInt32)},
		[]AggSpec{{Kind: AggSum, Input: expr.NewCol(5, "missing", types.KindInt64)}},
	)
	if err := h2.Add(types.Row{types.Int32(1)}); err == nil {
		t.Error("bad agg input: want error")
	}
}

func TestAggKindString(t *testing.T) {
	for _, k := range []AggKind{AggCount, AggSum, AggMin, AggMax, AggAvg, AggKind(9)} {
		if k.String() == "" {
			t.Errorf("AggKind(%d).String() empty", k)
		}
	}
}

func TestFinalRowsDeterministic(t *testing.T) {
	groupBy, aggs := aggFixture()
	h := NewHashAgg(groupBy, aggs)
	for i := 99; i >= 0; i-- {
		if err := h.Add(types.Row{types.Int32(int32(i)), types.Int64(1)}); err != nil {
			t.Fatal(err)
		}
	}
	a := h.FinalRows()
	b := h.FinalRows()
	for i := range a {
		if !types.Equal(a[i][0], b[i][0]) {
			t.Fatal("FinalRows not deterministic")
		}
	}
}
