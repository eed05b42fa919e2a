// Package relop implements the relational operators shared by the two query
// engines: hash tables for equi-joins and mergeable hash aggregation. The
// parallel database (internal/edw) and JEN (internal/jen) both build on
// these, just as the paper's engines share the standard parallel-database
// repertoire (hash join, hash-based aggregation, pipelining).
package relop

import (
	"fmt"
	"runtime"

	"hybridwh/internal/batch"
	"hybridwh/internal/par"
	"hybridwh/internal/types"
)

// HashTable is an in-memory equi-join hash table keyed by an integer join
// key column. Inserted rows are radix-partitioned by the top bits of the key
// hash; Build seals the table by laying each partition out as a flat
// open-addressing slot array over an arena of rows grouped by key, so a
// probe is one hash, a short linear scan of contiguous 16-byte slots, and a
// slice of the arena — no per-key allocations and no pointer chasing.
//
// Insert/InsertBatch are not safe for concurrent use (callers serialize the
// build phase, as before). Build is idempotent; once it has run, Probe and
// Join are safe for concurrent use by multiple goroutines. Probing an
// unsealed table builds it on the spot, which preserves the old single-
// goroutine insert-then-probe usage; concurrent probers must call Build
// first.
type HashTable struct {
	keyIdx int
	shift  uint // partition = hash >> shift; 64 means "single partition"
	parts  []htPart
	rows   int64
	built  bool
}

// htSlot is one open-addressing slot: a key and its group's position in the
// partition's grouped-row arena. cnt == 0 marks an empty slot; during the
// scatter pass of build, off is the group's write cursor, after it the
// group occupies grouped[off-cnt : off].
type htSlot struct {
	key int64
	off int32
	cnt int32
}

// htPart is one radix partition: staging arrays in insertion order, plus the
// slot table and grouped arena produced by build.
type htPart struct {
	keys    []int64
	rows    []types.Row
	slots   []htSlot
	grouped []types.Row
	mask    uint64
}

// parallelBuildRows is the row count below which Build stays sequential:
// goroutine fan-out costs more than it saves on small tables.
const parallelBuildRows = 1 << 14

// NewHashTable creates a table keyed on column keyIdx of inserted rows, with
// one radix partition per available CPU (rounded up to a power of two).
func NewHashTable(keyIdx int) *HashTable {
	return NewHashTableParts(keyIdx, runtime.GOMAXPROCS(0))
}

// NewHashTableParts creates a table with an explicit partition count
// (rounded up to a power of two; values < 1 mean 1). Exposed so tests can
// exercise multi-partition layouts regardless of the host's CPU count.
func NewHashTableParts(keyIdx, parts int) *HashTable {
	p := 1
	for p < parts {
		p <<= 1
	}
	shift := uint(64)
	for 1<<(64-shift) < p {
		shift--
	}
	return &HashTable{keyIdx: keyIdx, shift: shift, parts: make([]htPart, p)}
}

// add stages one row in its key's partition.
func (h *HashTable) add(key int64, row types.Row) {
	p := &h.parts[types.Mix64(uint64(key))>>h.shift]
	p.keys = append(p.keys, key)
	p.rows = append(p.rows, row)
	h.rows++
	h.built = false
}

// Insert adds a row.
func (h *HashTable) Insert(row types.Row) error {
	if h.keyIdx >= len(row) {
		return fmt.Errorf("relop: join key column %d out of range (row has %d)", h.keyIdx, len(row))
	}
	h.add(row[h.keyIdx].Int(), row)
	return nil
}

// InsertBatch adds every live row of b. Rows are materialized out of one
// bulk value arena, so a batch insert costs a handful of allocations instead
// of one per row.
func (h *HashTable) InsertBatch(b *batch.Batch) error {
	ncols := b.NumCols()
	if h.keyIdx >= ncols {
		return fmt.Errorf("relop: join key column %d out of range (batch has %d)", h.keyIdx, ncols)
	}
	n := b.Len()
	if n == 0 {
		return nil
	}
	arena := make([]types.Value, n*ncols)
	return b.Each(func(i int) error {
		row := types.Row(arena[:ncols:ncols])
		arena = arena[ncols:]
		for j := 0; j < ncols; j++ {
			row[j] = b.Col(j)[i]
		}
		h.add(row[h.keyIdx].Int(), row)
		return nil
	})
}

// Build seals the table: every partition gets its slot table and grouped
// arena laid out. Partitions are independent, so large builds run one
// goroutine per partition with no locks. Idempotent; inserting after Build
// unseals the table and the next Build (or Probe) relays everything out.
func (h *HashTable) Build() {
	if h.built {
		return
	}
	if len(h.parts) > 1 && h.rows >= parallelBuildRows {
		// Error is always nil: htPart.build cannot fail.
		_ = par.ForEach(len(h.parts), func(i int) error {
			h.parts[i].build()
			return nil
		})
	} else {
		for i := range h.parts {
			h.parts[i].build()
		}
	}
	h.built = true
}

// build lays out one partition: count keys into the slot table (linear
// probing, load factor <= 0.5), prefix-sum group offsets, then scatter rows
// into the grouped arena in insertion order (counting sort by key).
func (p *htPart) build() {
	n := len(p.keys)
	if n == 0 {
		p.slots, p.grouped, p.mask = nil, nil, 0
		return
	}
	size := uint64(8)
	for size < uint64(2*n) {
		size <<= 1
	}
	p.mask = size - 1
	p.slots = make([]htSlot, size)
	for _, k := range p.keys {
		i := types.Mix64(uint64(k)) & p.mask
		for {
			s := &p.slots[i]
			if s.cnt == 0 {
				s.key, s.cnt = k, 1
				break
			}
			if s.key == k {
				s.cnt++
				break
			}
			i = (i + 1) & p.mask
		}
	}
	var off int32
	for i := range p.slots {
		s := &p.slots[i]
		if s.cnt > 0 {
			s.off = off
			off += s.cnt
		}
	}
	p.grouped = make([]types.Row, n)
	for j, k := range p.keys {
		i := types.Mix64(uint64(k)) & p.mask
		for {
			s := &p.slots[i]
			if s.cnt > 0 && s.key == k {
				p.grouped[s.off] = p.rows[j]
				s.off++
				break
			}
			i = (i + 1) & p.mask
		}
	}
}

// probe returns the grouped rows for key (nil if absent). hash is the
// already-computed Mix64 of the key.
func (p *htPart) probe(key int64, hash uint64) []types.Row {
	if len(p.slots) == 0 {
		return nil
	}
	i := hash & p.mask
	for {
		s := &p.slots[i]
		if s.cnt == 0 {
			return nil
		}
		if s.key == key {
			return p.grouped[s.off-s.cnt : s.off]
		}
		i = (i + 1) & p.mask
	}
}

// Probe returns the rows matching the key in insertion order (nil if none).
func (h *HashTable) Probe(key int64) []types.Row {
	if !h.built {
		h.Build()
	}
	hash := types.Mix64(uint64(key))
	return h.parts[hash>>h.shift].probe(key, hash)
}

// Len returns the number of inserted rows.
func (h *HashTable) Len() int64 { return h.rows }

// MaxBucket returns the row count of the table's largest key group — the
// build-side footprint of the single most frequent join key (0 when empty).
// Skew diagnostics read it per worker: a plain hash repartition parks a hot
// key's entire group on one worker, while the hybrid skew shuffle scatters
// the group so every worker's MaxBucket stays near the mean. Builds the
// table if it is not sealed yet.
func (h *HashTable) MaxBucket() int64 {
	if !h.built {
		h.Build()
	}
	var most int32
	for i := range h.parts {
		for _, s := range h.parts[i].slots {
			if s.cnt > most {
				most = s.cnt
			}
		}
	}
	return int64(most)
}

// EachRow visits every inserted row (partition by partition, in insertion
// order within a partition). The spill path uses it to dump the in-memory
// phase to disk when the budget overflows.
func (h *HashTable) EachRow(fn func(types.Row) error) error {
	for i := range h.parts {
		for _, r := range h.parts[i].rows {
			if err := fn(r); err != nil {
				return err
			}
		}
	}
	return nil
}
