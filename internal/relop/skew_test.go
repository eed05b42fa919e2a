package relop

import (
	"fmt"
	"sort"
	"testing"

	"hybridwh/internal/types"
)

func TestHashTableMaxBucket(t *testing.T) {
	if got := NewHashTable(0).MaxBucket(); got != 0 {
		t.Errorf("empty table MaxBucket = %d, want 0", got)
	}
	h := NewHashTableParts(0, 4)
	// Key 7 appears five times, key 1 twice, key 2 once.
	for _, k := range []int32{7, 1, 7, 2, 7, 7, 1, 7} {
		if err := h.Insert(types.Row{types.Int32(k), types.String("x")}); err != nil {
			t.Fatal(err)
		}
	}
	if got := h.MaxBucket(); got != 5 {
		t.Errorf("MaxBucket = %d, want 5", got)
	}
	// Inserting after Build unseals; MaxBucket must reflect the new rows.
	if err := h.Insert(types.Row{types.Int32(2), types.String("y")}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := h.Insert(types.Row{types.Int32(9), types.String("z")}); err != nil {
			t.Fatal(err)
		}
	}
	if got := h.MaxBucket(); got != 6 {
		t.Errorf("MaxBucket after re-insert = %d, want 6", got)
	}
}

// TestReplicatedProbeExactness is the operator-level model of the hybrid
// skew shuffle: a hot key's build rows are scattered round-robin across the
// worker tables while every probe row carrying a hot key is replicated to
// all workers (cold keys hash both sides to one worker). Because each build
// row lives on exactly one worker, the union of the per-worker joins must
// equal the single-table join — every (build, probe) pair exactly once.
func TestReplicatedProbeExactness(t *testing.T) {
	const workers = 4
	hot := map[int64]bool{7: true}
	home := func(k int64) int { return int(types.Mix64(uint64(k)) % workers) }

	var build []types.Row
	for i := 0; i < 20; i++ {
		build = append(build, types.Row{types.Int32(7), types.Int64(int64(i))})
	}
	for i := 0; i < 12; i++ {
		build = append(build, types.Row{types.Int32(int32(i % 5)), types.Int64(int64(100 + i))})
	}
	probe := []types.Row{
		{types.Int64(1000), types.Int32(7)},
		{types.Int64(1001), types.Int32(7)},
		{types.Int64(1002), types.Int32(3)},
		{types.Int64(1003), types.Int32(4)},
		{types.Int64(1004), types.Int32(99)}, // matches nothing
	}

	single := NewHashTable(0)
	tables := make([]*HashTable, workers)
	for w := range tables {
		tables[w] = NewHashTable(0)
	}
	rr := 0
	for _, r := range build {
		if err := single.Insert(r); err != nil {
			t.Fatal(err)
		}
		k := r[0].Int()
		w := home(k)
		if hot[k] {
			w = rr % workers // round-robin scatter, like skew.Partitioner
			rr++
		}
		if err := tables[w].Insert(r); err != nil {
			t.Fatal(err)
		}
	}

	join := func(h *HashTable, rows []types.Row) map[string]int {
		out := map[string]int{}
		for _, p := range rows {
			for _, b := range h.Probe(p[1].Int()) {
				out[fmt.Sprintf("%v", b.Concat(p))]++
			}
		}
		return out
	}

	want := join(single, probe)
	got := map[string]int{}
	for w, h := range tables {
		// Worker w sees every hot probe row plus the cold rows hashing home.
		var local []types.Row
		for _, p := range probe {
			k := p[1].Int()
			if hot[k] || home(k) == w {
				local = append(local, p)
			}
		}
		for c, n := range join(h, local) {
			got[c] += n
		}
	}

	if len(want) == 0 {
		t.Fatal("single-table join empty; fixture broken")
	}
	keys := map[string]bool{}
	for c := range want {
		keys[c] = true
	}
	for c := range got {
		keys[c] = true
	}
	var sorted []string
	for c := range keys {
		sorted = append(sorted, c)
	}
	sort.Strings(sorted)
	for _, c := range sorted {
		if want[c] != got[c] {
			t.Errorf("pair %s: single-table ×%d, scattered+replicated ×%d", c, want[c], got[c])
		}
	}

	// The scatter did its job: no worker holds the hot key's whole group.
	for w, h := range tables {
		if mb := h.MaxBucket(); mb > 20/workers+1 {
			t.Errorf("worker %d MaxBucket = %d; hot key not scattered", w, mb)
		}
	}
}
