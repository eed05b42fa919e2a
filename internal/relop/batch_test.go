package relop

import (
	"fmt"
	"sort"
	"testing"

	"hybridwh/internal/batch"
	"hybridwh/internal/expr"
	"hybridwh/internal/types"
)

func batchAggFixture() ([]expr.Expr, []AggSpec) {
	groupBy := []expr.Expr{expr.NewCol(0, "g", types.KindInt32)}
	aggs := []AggSpec{
		{Kind: AggCount, Name: "cnt"},
		{Kind: AggSum, Input: expr.NewCol(1, "v", types.KindInt32), Name: "sum"},
		{Kind: AggMin, Input: expr.NewCol(1, "v", types.KindInt32), Name: "min"},
		{Kind: AggMax, Input: expr.NewCol(1, "v", types.KindInt32), Name: "max"},
		{Kind: AggAvg, Input: expr.NewCol(1, "v", types.KindInt32), Name: "avg"},
	}
	return groupBy, aggs
}

func aggRows(n int) []types.Row {
	rows := make([]types.Row, n)
	for i := range rows {
		v := types.Value(types.Int32(int32(i * 3 % 101)))
		if i%17 == 0 {
			v = types.Null
		}
		rows[i] = types.Row{types.Int32(int32(i % 13)), v}
	}
	return rows
}

func finalEqual(t *testing.T, got, want []types.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("group count %d, want %d", len(got), len(want))
	}
	for i := range want {
		for c := range want[i] {
			if got[i][c] != want[i][c] {
				t.Fatalf("row %d col %d: %v != %v", i, c, got[i][c], want[i][c])
			}
		}
	}
}

// TestAddBatchMatchesAdd feeds the same rows through Add and AddBatch (with
// a selection vector) and requires identical final output.
func TestAddBatchMatchesAdd(t *testing.T) {
	groupBy, aggs := batchAggFixture()
	rows := aggRows(400)

	rowAgg := NewHashAgg(groupBy, aggs)
	for _, r := range rows {
		if err := rowAgg.Add(r); err != nil {
			t.Fatal(err)
		}
	}

	batchAgg := NewHashAgg(groupBy, aggs)
	for lo := 0; lo < len(rows); lo += 64 {
		hi := lo + 64
		if hi > len(rows) {
			hi = len(rows)
		}
		b := batch.New(2, hi-lo)
		for _, r := range rows[lo:hi] {
			b.AppendRow(r)
		}
		if err := batchAgg.AddBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	if rowAgg.NumGroups() != batchAgg.NumGroups() {
		t.Fatalf("groups %d vs %d", rowAgg.NumGroups(), batchAgg.NumGroups())
	}
	finalEqual(t, batchAgg.FinalRows(), rowAgg.FinalRows())
}

// TestAddBatchHonorsSelection: deselected rows must not be aggregated.
func TestAddBatchHonorsSelection(t *testing.T) {
	groupBy, aggs := batchAggFixture()
	want := NewHashAgg(groupBy, aggs)
	got := NewHashAgg(groupBy, aggs)

	rows := aggRows(100)
	b := batch.New(2, len(rows))
	var sel []int32
	for i, r := range rows {
		b.AppendRow(r)
		if i%3 == 0 {
			sel = append(sel, int32(i))
			if err := want.Add(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	b.SetSel(sel)
	if err := got.AddBatch(b); err != nil {
		t.Fatal(err)
	}
	finalEqual(t, got.FinalRows(), want.FinalRows())
}

// TestGroupHashCollisionChain exercises the collision chain directly: a
// foreign group planted in the slot of another key's hash must be walked
// past (strict key equality), not merged into.
func TestGroupHashCollisionChain(t *testing.T) {
	groupBy, aggs := batchAggFixture()
	h := NewHashAgg(groupBy, aggs)

	k2 := types.Row{types.Int32(2)}
	planted := &aggGroup{keys: types.Row{types.Int32(1)}, state: make([]types.Value, h.stateWidth())}
	h.groups[types.HashValues(k2)] = planted
	h.n++

	g2 := h.group(k2)
	if g2 == planted {
		t.Fatal("colliding keys merged into one group")
	}
	if h.group(k2) != g2 {
		t.Fatal("second lookup of same key found a different group")
	}
	// Both groups share the slot: g2 heads the chain, planted stays behind it.
	if head := h.groups[types.HashValues(k2)]; head != g2 || head.next != planted {
		t.Fatal("collision chain not linked as head=new, next=planted")
	}
	if h.NumGroups() != 2 {
		t.Fatalf("NumGroups=%d, want 2", h.NumGroups())
	}
}

// TestFinalRowsSortedByEncodedKey pins the output order contract: groups
// sort by their value-encoded key bytes (the pre-hash map key), not
// numerically — varint encoding makes 127 sort after 128.
func TestFinalRowsSortedByEncodedKey(t *testing.T) {
	groupBy := []expr.Expr{expr.NewCol(0, "g", types.KindInt32)}
	aggs := []AggSpec{{Kind: AggCount, Name: "cnt"}}
	h := NewHashAgg(groupBy, aggs)
	keys := []int32{5, 128, 127, 1000, -3, 0}
	for _, k := range keys {
		if err := h.Add(types.Row{types.Int32(k)}); err != nil {
			t.Fatal(err)
		}
	}
	enc := func(k int32) string {
		return string(types.AppendValue(nil, types.Int32(k)))
	}
	sorted := append([]int32(nil), keys...)
	sort.Slice(sorted, func(i, j int) bool { return enc(sorted[i]) < enc(sorted[j]) })
	final := h.FinalRows()
	if len(final) != len(sorted) {
		t.Fatalf("%d groups, want %d", len(final), len(sorted))
	}
	for i, k := range sorted {
		if got := int32(final[i][0].Int()); got != k {
			t.Fatalf("position %d: group %d, want %d (encoded-key order)", i, got, k)
		}
	}
}

// TestInsertBatchMatchesInsert builds two hash tables from the same rows —
// one per row, one per batch under a selection — and cross-checks probes.
func TestInsertBatchMatchesInsert(t *testing.T) {
	rows := make([]types.Row, 60)
	for i := range rows {
		rows[i] = types.Row{types.Int32(int32(i % 7)), types.String(fmt.Sprintf("r%d", i))}
	}
	rowHT := NewHashTable(0)
	batchHT := NewHashTable(0)
	b := batch.New(2, len(rows))
	var sel []int32
	for i, r := range rows {
		b.AppendRow(r)
		if i%2 == 0 {
			sel = append(sel, int32(i))
			if err := rowHT.Insert(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	b.SetSel(sel)
	if err := batchHT.InsertBatch(b); err != nil {
		t.Fatal(err)
	}
	if rowHT.Len() != batchHT.Len() {
		t.Fatalf("Len %d vs %d", rowHT.Len(), batchHT.Len())
	}
	for k := int64(0); k < 8; k++ {
		want, got := rowHT.Probe(k), batchHT.Probe(k)
		if len(want) != len(got) {
			t.Fatalf("key %d: %d vs %d matches", k, len(got), len(want))
		}
		for i := range want {
			if got[i][1] != want[i][1] {
				t.Fatalf("key %d match %d: %v != %v", k, i, got[i][1], want[i][1])
			}
		}
	}
}

// TestProbeBatchMatchesProbe runs the same probes through one ProbeBatch
// call against both JoinTable implementations and through HashTable.Probe
// key by key.
func TestProbeBatchMatchesProbe(t *testing.T) {
	build := make([]types.Row, 40)
	for i := range build {
		build[i] = types.Row{types.Int32(int32(i % 11)), types.Int32(int32(i))}
	}
	probes := make([]types.Row, 30)
	for i := range probes {
		probes[i] = types.Row{types.String(fmt.Sprintf("p%d", i)), types.Int32(int32(i % 17))}
	}
	spill, err := NewSpillingHashTable(0, 1, t.TempDir()) // 1-byte budget: spills immediately
	if err != nil {
		t.Fatal(err)
	}
	for name, mk := range map[string]func() JoinTable{
		"mem":   func() JoinTable { return NewMemJoinTable(0) },
		"spill": func() JoinTable { return spill },
	} {
		t.Run(name, func(t *testing.T) {
			jt := mk()
			for _, r := range build {
				if err := jt.InsertBatch(rowBatch(r)); err != nil {
					t.Fatal(err)
				}
			}
			if err := jt.FinishBuild(); err != nil {
				t.Fatal(err)
			}
			pb := batch.New(2, len(probes))
			for _, r := range probes {
				pb.AppendRow(r)
			}
			var got []string
			collect := func(b, p types.Row) error {
				got = append(got, fmt.Sprintf("%v|%v", b, p))
				return nil
			}
			if err := jt.ProbeBatch(pb, 1, collect); err != nil {
				t.Fatal(err)
			}
			if err := jt.Drain(collect); err != nil {
				t.Fatal(err)
			}
			// Reference: per-key probes against a fresh hash table.
			ref := NewHashTable(0)
			for _, r := range build {
				if err := ref.Insert(r); err != nil {
					t.Fatal(err)
				}
			}
			var want []string
			for _, p := range probes {
				for _, b := range ref.Probe(p[1].Int()) {
					want = append(want, fmt.Sprintf("%v|%v", b, p))
				}
			}
			sort.Strings(got)
			sort.Strings(want)
			if len(got) != len(want) {
				t.Fatalf("%d matches, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("match %d: %s != %s", i, got[i], want[i])
				}
			}
		})
	}
}
