package relop

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hybridwh/internal/expr"
	"hybridwh/internal/types"
)

// Property: partial-aggregation merging is order- and partition-invariant —
// the distributed aggregation tree can combine partials in any shape.
func TestQuickMergeOrderInvariance(t *testing.T) {
	groupBy := []expr.Expr{expr.NewCol(0, "g", types.KindInt32)}
	aggs := []AggSpec{
		{Kind: AggCount, Name: "cnt"},
		{Kind: AggSum, Input: expr.NewCol(1, "v", types.KindInt64), Name: "sum"},
		{Kind: AggMin, Input: expr.NewCol(1, "v", types.KindInt64), Name: "min"},
		{Kind: AggMax, Input: expr.NewCol(1, "v", types.KindInt64), Name: "max"},
	}

	f := func(vals []int16, seed int64, parts uint8) bool {
		if len(vals) == 0 {
			return true
		}
		nparts := int(parts%7) + 1
		rng := rand.New(rand.NewSource(seed))

		rows := make([]types.Row, len(vals))
		for i, v := range vals {
			rows[i] = types.Row{types.Int32(int32(i % 5)), types.Int64(int64(v))}
		}

		// Reference: single aggregator.
		ref := NewHashAgg(groupBy, aggs)
		for _, r := range rows {
			if err := ref.Add(r); err != nil {
				return false
			}
		}
		want := render(ref.FinalRows())

		// Random partitioning, merged in random order.
		partsAgg := make([]*HashAgg, nparts)
		for i := range partsAgg {
			partsAgg[i] = NewHashAgg(groupBy, aggs)
		}
		for _, r := range rows {
			if err := partsAgg[rng.Intn(nparts)].Add(r); err != nil {
				return false
			}
		}
		var partials []types.Row
		for _, p := range partsAgg {
			partials = append(partials, p.PartialRows()...)
		}
		rng.Shuffle(len(partials), func(i, j int) { partials[i], partials[j] = partials[j], partials[i] })
		final := NewHashAgg(groupBy, aggs)
		for _, pr := range partials {
			if err := final.MergePartial(pr); err != nil {
				return false
			}
		}
		return render(final.FinalRows()) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func render(rows []types.Row) string {
	out := ""
	for _, r := range rows {
		out += r.String() + "\n"
	}
	return out
}

// Property: the radix-partitioned flat table is observationally equal to a
// reference map-based join — for any build multiset, any insertion order and
// any partition count, every probe returns a permutation-equal match set,
// and matches for one key come back in insertion order.
func TestQuickFlatTableMatchesMapJoin(t *testing.T) {
	f := func(buildKeys []uint8, parts uint8, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(buildKeys), func(i, j int) {
			buildKeys[i], buildKeys[j] = buildKeys[j], buildKeys[i]
		})
		nparts := 1 << (parts % 5) // 1, 2, 4, 8, 16
		ht := NewHashTableParts(0, nparts)
		ref := map[int64][]types.Row{}
		for i, k := range buildKeys {
			key := int64(k%16) - 8 // include negative and zero keys
			row := types.Row{types.Int64(key), types.Int32(int32(i))}
			ref[key] = append(ref[key], row)
			if err := ht.Insert(row); err != nil {
				return false
			}
		}
		ht.Build()
		for key := int64(-9); key <= 9; key++ {
			got, want := ht.Probe(key), ref[key]
			if len(got) != len(want) {
				return false
			}
			if len(want) == 0 && got != nil {
				return false
			}
			for i := range want {
				// Same rows in the same (insertion) order: permutation
				// equality plus the within-key order contract.
				if got[i][1].Int() != want[i][1].Int() {
					return false
				}
			}
		}
		// EachRow visits every row exactly once.
		visited := 0
		if err := ht.EachRow(func(types.Row) error { visited++; return nil }); err != nil {
			return false
		}
		return visited == len(buildKeys)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// The flat table must stay correct across Build/insert interleavings: Build
// is idempotent, and inserting after Build unseals and rebuilds.
func TestFlatTableRebuildAfterInsert(t *testing.T) {
	ht := NewHashTableParts(0, 4)
	for i := 0; i < 10; i++ {
		if err := ht.Insert(types.Row{types.Int64(int64(i % 3)), types.Int32(int32(i))}); err != nil {
			t.Fatal(err)
		}
	}
	ht.Build()
	ht.Build() // idempotent
	if got := ht.Probe(1); len(got) != 3 {
		t.Fatalf("Probe(1) = %d rows, want 3", len(got))
	}
	if err := ht.Insert(types.Row{types.Int64(1), types.Int32(99)}); err != nil {
		t.Fatal(err)
	}
	got := ht.Probe(1) // rebuilds lazily
	if len(got) != 4 || got[3][1].Int() != 99 {
		t.Fatalf("after rebuild Probe(1) = %v", got)
	}
	if ht.Len() != 11 {
		t.Fatalf("Len = %d", ht.Len())
	}
}

// Property: for any build/probe multiset, the hash join emits exactly the
// cross product per key.
func TestQuickJoinCardinality(t *testing.T) {
	f := func(buildKeys, probeKeys []uint8) bool {
		ht := NewHashTable(0)
		buildCount := map[int64]int{}
		for _, k := range buildKeys {
			key := int64(k % 16)
			buildCount[key]++
			if err := ht.Insert(types.Row{types.Int64(key)}); err != nil {
				return false
			}
		}
		var want, got int64
		for _, k := range probeKeys {
			key := int64(k % 16)
			want += int64(buildCount[key])
			got += int64(len(ht.Probe(key)))
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
