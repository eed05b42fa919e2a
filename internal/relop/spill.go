package relop

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"hybridwh/internal/batch"
	"hybridwh/internal/mem"
	"hybridwh/internal/types"
)

// The paper's JEN "requires that all data fit in memory for the local
// hash-based join on each worker. In the future, we plan to support spilling
// to disk to overcome this limitation." SpillingHashTable is that extension,
// rebuilt as a *dynamic hybrid hash join* in the style of Jahangiri, Carey &
// Freytag (arXiv 2112.02480): the build side is split into partitions that
// are individually resident or spilled. Under budget pressure the largest
// resident partition is evicted to disk (largest-first frees the most memory
// per eviction); probe rows for spilled partitions follow them to disk, and
// Drain joins each spilled partition. A spilled partition that still does
// not fit at rejoin time is recursively repartitioned with a depth-salted
// hash, up to maxDepth levels; past that (a single hot key no hash can
// split) a budget-sized block nested-loop join finishes the partition
// exactly. There is therefore no input the join cannot process within its
// budget, replacing the old one-level Grace spill whose per-partition
// overflow had no recourse.

// JoinTable abstracts the build side of a local equi-join so engines can
// switch between the in-memory and spilling implementations.
type JoinTable interface {
	// InsertBatch adds every live row of a batch. The batch is on loan: the
	// table copies what it keeps.
	InsertBatch(b *batch.Batch) error
	// Len reports the inserted row count.
	Len() int64
	// FinishBuild seals the build side; ProbeBatch may be called after.
	FinishBuild() error
	// ProbeBatch emits, for every live row of a batch, the build rows
	// matching its key — possibly deferring spilled matches to Drain. The
	// probe row passed to emit aliases scratch storage valid only for that
	// call.
	ProbeBatch(b *batch.Batch, probeKeyIdx int, emit func(buildRow, probeRow types.Row) error) error
	// Drain emits all deferred matches and releases resources.
	Drain(emit func(buildRow, probeRow types.Row) error) error
	// Close releases resources without draining (error paths).
	Close() error
}

// MemJoinTable adapts HashTable to JoinTable.
type MemJoinTable struct{ H *HashTable }

// NewMemJoinTable wraps an in-memory hash table.
func NewMemJoinTable(keyIdx int) *MemJoinTable {
	return &MemJoinTable{H: NewHashTable(keyIdx)}
}

// InsertBatch implements JoinTable via the arena bulk insert.
func (m *MemJoinTable) InsertBatch(b *batch.Batch) error { return m.H.InsertBatch(b) }

// Len implements JoinTable.
func (m *MemJoinTable) Len() int64 { return m.H.Len() }

// FinishBuild implements JoinTable: it seals the flat table so subsequent
// probes (possibly from several goroutines) never mutate it.
func (m *MemJoinTable) FinishBuild() error {
	m.H.Build()
	return nil
}

// ProbeBatch implements JoinTable. The probe row is materialized into reused
// scratch only when its bucket is non-empty, so misses cost one table probe.
func (m *MemJoinTable) ProbeBatch(b *batch.Batch, probeKeyIdx int, emit func(buildRow, probeRow types.Row) error) error {
	if probeKeyIdx >= b.NumCols() {
		return fmt.Errorf("relop: probe key column %d out of range", probeKeyIdx)
	}
	keys := b.Col(probeKeyIdx)
	var scratch types.Row
	return b.Each(func(i int) error {
		bucket := m.H.Probe(keys[i].Int())
		if len(bucket) == 0 {
			return nil
		}
		scratch = b.RowAt(i, scratch)
		for _, br := range bucket {
			if err := emit(br, scratch); err != nil {
				return err
			}
		}
		return nil
	})
}

// Drain implements JoinTable.
func (m *MemJoinTable) Drain(func(buildRow, probeRow types.Row) error) error { return nil }

// Close implements JoinTable.
func (m *MemJoinTable) Close() error { return nil }

const (
	// defaultFanout is the partition fan-out at every level of the dynamic
	// hybrid hash join. Unlike the old one-level Grace spill (whose fixed
	// 16-way fan-out bounded the joinable build side at budget×16), the
	// fan-out no longer caps anything: a partition that overflows its
	// budget at rejoin time is recursively repartitioned, and past
	// defaultMaxDepth a block nested-loop pass handles even a single key
	// larger than the budget.
	defaultFanout = 16
	// defaultMaxDepth bounds recursive repartitioning. Each level multiplies
	// the addressable build side by the fan-out: 16^3 × budget is beyond
	// any realistic skew, and the nested-loop fallback keeps correctness
	// for the degenerate single-hot-key case that hashing cannot split.
	defaultMaxDepth = 3
	// rowOverhead is the per-row in-memory bookkeeping estimate added to
	// the encoded payload size when charging the budget.
	rowOverhead = 48
)

// SpillingHashTable is the dynamic hybrid hash join implementation of
// JoinTable. It charges every resident build row to a mem.Budget; the
// budget may be private (NewSpillingHashTable — the serial engine's
// per-worker spill budget) or shared by every operator of a query
// (NewSharedSpillingHashTable — concurrent serving), in which case the
// table also registers a pressure callback so sibling operators can force
// partition evictions.
type SpillingHashTable struct {
	keyIdx int
	bud    *mem.Budget
	ownBud bool
	dir    string

	mu          sync.Mutex
	fanout      int          // guarded by mu
	maxDepth    int          // guarded by mu
	parts       []*spillPart // guarded by mu
	rows        int64        // guarded by mu
	reserved    int64        // guarded by mu — bytes this table holds in bud
	fileSeq     int          // guarded by mu — unique spill-file names
	sealed      bool         // guarded by mu
	spilled     bool         // guarded by mu
	closed      bool         // guarded by mu
	pressureErr error        // guarded by mu — deferred eviction failure

	// Spill statistics, stable once Drain or Close returns.
	SpilledBuildRows int64 // build rows written to disk
	SpilledProbeRows int64 // probe rows written to disk
	Evictions        int64 // partitions evicted under budget pressure
	Repartitions     int64 // recursive repartition passes at rejoin
	NLFallbacks      int64 // block nested-loop passes past maxDepth
}

// spillPart is one top-level partition: resident (rows, then a hash table
// at FinishBuild) until evicted, spilled (build/probe files) after.
type spillPart struct {
	rows  []types.Row
	bytes int64
	ht    *HashTable // built at FinishBuild while resident
	build *spillFile // non-nil once evicted
	probe *spillFile
}

func (p *spillPart) resident() bool { return p.build == nil }

type spillFile struct {
	f     *os.File
	w     *bufio.Writer
	n     int64
	bytes int64 // in-memory cost of the rows (encoded size + overhead)
}

// NewSpillingHashTable creates a table keyed on keyIdx with a private
// in-memory byte budget. Temp files go under dir ("" = os.TempDir()).
func NewSpillingHashTable(keyIdx int, budgetBytes int64, dir string) (*SpillingHashTable, error) {
	if budgetBytes <= 0 {
		return nil, fmt.Errorf("relop: spill budget must be positive")
	}
	s, err := NewSharedSpillingHashTable(keyIdx, mem.NewBudget(budgetBytes), dir)
	if err != nil {
		return nil, err
	}
	s.ownBud = true
	return s, nil
}

// NewSharedSpillingHashTable creates a table charging the given (non-nil)
// budget, shared with the query's other operators. The table registers a
// pressure callback on the budget: when any operator of the query runs out
// of memory, this table evicts partitions to make room.
func NewSharedSpillingHashTable(keyIdx int, bud *mem.Budget, dir string) (*SpillingHashTable, error) {
	if bud == nil {
		return nil, fmt.Errorf("relop: shared spilling table needs a budget")
	}
	if dir == "" {
		dir = os.TempDir()
	}
	tmp, err := os.MkdirTemp(dir, "hwspill-")
	if err != nil {
		return nil, err
	}
	s := &SpillingHashTable{
		keyIdx: keyIdx, bud: bud, dir: tmp,
		fanout: defaultFanout, maxDepth: defaultMaxDepth,
	}
	s.parts = newParts(s.fanout)
	bud.OnPressure(s.shed)
	return s, nil
}

func newParts(n int) []*spillPart {
	parts := make([]*spillPart, n)
	for i := range parts {
		parts[i] = &spillPart{}
	}
	return parts
}

// Configure overrides the partition fan-out and recursion depth bound
// (testing and tuning). It must be called before the first InsertBatch.
func (s *SpillingHashTable) Configure(fanout, maxDepth int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.rows > 0 || s.spilled {
		return fmt.Errorf("relop: Configure after first insert")
	}
	if fanout < 2 || maxDepth < 0 {
		return fmt.Errorf("relop: invalid fanout %d / maxDepth %d", fanout, maxDepth)
	}
	s.fanout, s.maxDepth = fanout, maxDepth
	s.parts = newParts(fanout)
	return nil
}

// hashPart routes a key to a partition at a recursion depth. Each depth
// salts the hash differently so a partition that collides at one level
// splits at the next; depth 0 is also uncorrelated with the shuffle hash.
func hashPart(key int64, depth, fanout int) int {
	seed := uint64(0xA5A5A5A5) + uint64(depth)*0x9E3779B97F4A7C15
	return int(types.Mix64(uint64(key)^seed) % uint64(fanout))
}

func rowBytes(row types.Row) int64 {
	return int64(types.EncodedRowSize(row)) + rowOverhead
}

func (s *SpillingHashTable) newFileLocked(side string) (*spillFile, error) {
	s.fileSeq++
	f, err := os.Create(filepath.Join(s.dir, fmt.Sprintf("%s-%04d.rows", side, s.fileSeq)))
	if err != nil {
		return nil, err
	}
	return &spillFile{f: f, w: bufio.NewWriterSize(f, 64<<10)}, nil
}

func (sf *spillFile) writeRow(row types.Row) error {
	buf := types.AppendRow(nil, row)
	if _, err := sf.w.Write(buf); err != nil {
		return err
	}
	sf.n++
	sf.bytes += int64(len(buf)) + rowOverhead
	return nil
}

// readRows streams every row back from the start of the file.
func (sf *spillFile) readRows(fn func(types.Row) error) error {
	if err := sf.w.Flush(); err != nil {
		return err
	}
	data, err := os.ReadFile(sf.f.Name())
	if err != nil {
		return err
	}
	for off := 0; off < len(data); {
		row, n, err := types.DecodeRow(data[off:])
		if err != nil {
			return fmt.Errorf("relop: corrupt spill file %s: %w", sf.f.Name(), err)
		}
		off += n
		if err := fn(row); err != nil {
			return err
		}
	}
	return nil
}

func (sf *spillFile) discard() {
	if sf == nil {
		return
	}
	name := sf.f.Name()
	sf.f.Close()
	os.Remove(name)
}

// reserveLocked charges n bytes to the budget on this table's account,
// shedding memory (other operators', or — via recursion-safe TryLock
// skipping — not our own) if needed.
func (s *SpillingHashTable) reserveLocked(n int64) error {
	if err := s.bud.Reserve(n); err != nil {
		return err
	}
	s.reserved += n
	return nil
}

func (s *SpillingHashTable) releaseLocked(n int64) {
	s.bud.Release(n)
	s.reserved -= n
}

// largestResidentLocked picks the eviction victim: the resident partition
// holding the most bytes (ties to the lowest index, keeping single-budget
// runs deterministic). Returns -1 when everything is already spilled.
func (s *SpillingHashTable) largestResidentLocked() int {
	best, bestBytes := -1, int64(-1)
	for i, p := range s.parts {
		if p.resident() && p.bytes > bestBytes {
			best, bestBytes = i, p.bytes
		}
	}
	return best
}

// evictLocked spills partition i: its rows go to a build file, its memory
// returns to the budget, and from now on the partition's inserts and
// probes go to disk. Works before sealing (rows) and after (hash table).
func (s *SpillingHashTable) evictLocked(i int) (int64, error) {
	p := s.parts[i]
	sf, err := s.newFileLocked("build")
	if err != nil {
		return 0, err
	}
	dump := func(r types.Row) error {
		s.SpilledBuildRows++
		return sf.writeRow(r)
	}
	if p.ht != nil {
		err = p.ht.EachRow(dump)
	} else {
		for _, r := range p.rows {
			if err = dump(r); err != nil {
				break
			}
		}
	}
	if err != nil {
		sf.discard()
		return 0, err
	}
	freed := p.bytes
	s.releaseLocked(p.bytes)
	p.rows, p.ht, p.bytes = nil, nil, 0
	p.build = sf
	s.spilled = true
	s.Evictions++
	return freed, nil
}

// shed is the budget pressure callback: evict largest-first until need
// bytes are freed. TryLock makes it safe to run from any goroutine —
// including re-entrantly from this table's own Reserve calls, where it
// simply declines (the insert path evicts directly instead).
func (s *SpillingHashTable) shed(need int64) int64 {
	if !s.mu.TryLock() {
		return 0
	}
	defer s.mu.Unlock()
	if s.closed {
		return 0
	}
	freed := int64(0)
	for freed < need {
		i := s.largestResidentLocked()
		if i < 0 {
			break
		}
		n, err := s.evictLocked(i)
		if err != nil {
			// Surfaced at the owner's next table operation; the budget
			// caller only sees fewer bytes freed.
			s.pressureErr = err
			break
		}
		freed += n
	}
	return freed
}

// InsertBatch implements JoinTable. Rows are cloned row-at-a-time: resident
// partitions retain them, and the budget accounting is per row.
func (s *SpillingHashTable) InsertBatch(b *batch.Batch) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return b.Each(func(i int) error {
		return s.insertLocked(b.CloneRow(i))
	})
}

func (s *SpillingHashTable) insertLocked(row types.Row) error {
	if s.sealed {
		return fmt.Errorf("relop: insert after FinishBuild")
	}
	if s.keyIdx >= len(row) {
		return fmt.Errorf("relop: join key column %d out of range (row has %d)", s.keyIdx, len(row))
	}
	if s.pressureErr != nil {
		return s.pressureErr
	}
	s.rows++
	p := s.parts[hashPart(row[s.keyIdx].Int(), 0, s.fanout)]
	for p.resident() {
		n := rowBytes(row)
		if s.bud.TryReserve(n) {
			s.reserved += n
			p.rows = append(p.rows, row)
			p.bytes += n
			return nil
		}
		// Budget pressure: evict the largest resident partition and retry.
		// The loop ends when the reservation fits or the target partition
		// itself is evicted (then the row goes to disk, needing no memory).
		i := s.largestResidentLocked()
		if i < 0 {
			break
		}
		if _, err := s.evictLocked(i); err != nil {
			return err
		}
	}
	s.spilled = true
	s.SpilledBuildRows++
	return p.build.writeRow(row)
}

// Len implements JoinTable.
func (s *SpillingHashTable) Len() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rows
}

// Spilled reports whether any partition overflowed to disk.
func (s *SpillingHashTable) Spilled() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.spilled
}

// FinishBuild implements JoinTable: resident partitions become sealed hash
// tables (row storage is handed to the table's arenas).
func (s *SpillingHashTable) FinishBuild() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sealed = true
	for _, p := range s.parts {
		if !p.resident() || p.ht != nil {
			continue
		}
		ht := NewHashTable(s.keyIdx)
		for _, r := range p.rows {
			if err := ht.Insert(r); err != nil {
				return err
			}
		}
		ht.Build()
		p.ht = ht
		p.rows = nil
	}
	return nil
}

// probeLocked probes one row. Matches in resident partitions are emitted
// immediately; probe rows for spilled partitions go to disk and their
// matches appear during Drain. A partition evicted mid-probe stays exact:
// probes before the eviction matched the complete sealed partition, probes
// after it are deferred and joined against the complete build file.
func (s *SpillingHashTable) probeLocked(probeRow types.Row, probeKeyIdx int, emit func(buildRow, probeRow types.Row) error) error {
	if !s.sealed {
		return fmt.Errorf("relop: probe before FinishBuild")
	}
	if probeKeyIdx >= len(probeRow) {
		return fmt.Errorf("relop: probe key column %d out of range", probeKeyIdx)
	}
	if s.pressureErr != nil {
		return s.pressureErr
	}
	key := probeRow[probeKeyIdx].Int()
	p := s.parts[hashPart(key, 0, s.fanout)]
	if p.resident() {
		for _, b := range p.ht.Probe(key) {
			if err := emit(b, probeRow); err != nil {
				return err
			}
		}
		return nil
	}
	if p.probe == nil {
		pf, err := s.newFileLocked("probe")
		if err != nil {
			return err
		}
		p.probe = pf
	}
	s.SpilledProbeRows++
	// The probe key position is recorded by prefixing it as a column so
	// Drain can rebuild the pairing without schema knowledge.
	tagged := make(types.Row, 0, len(probeRow)+1)
	tagged = append(tagged, types.Int32(int32(probeKeyIdx)))
	tagged = append(tagged, probeRow...)
	return p.probe.writeRow(tagged)
}

// ProbeBatch implements JoinTable. Probe rows are materialized into reused
// scratch; both the resident emit path and the spill path copy what they
// keep (spill encodes to disk immediately), so reuse is safe.
func (s *SpillingHashTable) ProbeBatch(b *batch.Batch, probeKeyIdx int, emit func(buildRow, probeRow types.Row) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var scratch types.Row
	return b.Each(func(i int) error {
		scratch = b.RowAt(i, scratch)
		return s.probeLocked(scratch, probeKeyIdx, emit)
	})
}

// Drain implements JoinTable: join each spilled partition, recursively
// repartitioning the ones that still do not fit the budget.
func (s *SpillingHashTable) Drain(emit func(buildRow, probeRow types.Row) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.cleanupLocked()
	if s.pressureErr != nil {
		return s.pressureErr
	}
	for _, p := range s.parts {
		if p.resident() {
			// Resident partitions emitted all their matches during the
			// probe phase; return their memory before the rejoins below so
			// spilled partitions see the whole budget.
			s.releaseLocked(p.bytes)
			p.rows, p.ht, p.bytes = nil, nil, 0
		}
	}
	for _, p := range s.parts {
		if p.resident() || p.build.n == 0 || p.probe == nil || p.probe.n == 0 {
			continue // nothing deferred in this partition
		}
		if err := s.joinSpilledLocked(p.build, p.probe, 0, emit); err != nil {
			return err
		}
	}
	return nil
}

// joinSpilledLocked joins one spilled (build file, probe file) pair. Three
// regimes, in order: load the build side and hash-join when the budget
// admits it; recursively repartition with the next level's hash when it
// does not; block nested-loop past maxDepth.
func (s *SpillingHashTable) joinSpilledLocked(bf, pf *spillFile, depth int, emit func(buildRow, probeRow types.Row) error) error {
	if err := s.reserveLocked(bf.bytes); err == nil {
		defer s.releaseLocked(bf.bytes)
		ht := NewHashTable(s.keyIdx)
		if err := bf.readRows(ht.Insert); err != nil {
			return err
		}
		ht.Build()
		return pf.readRows(func(tagged types.Row) error {
			keyIdx := int(tagged[0].Int())
			probeRow := tagged[1:]
			for _, b := range ht.Probe(probeRow[keyIdx].Int()) {
				if err := emit(b, probeRow); err != nil {
					return err
				}
			}
			return nil
		})
	}
	if depth >= s.maxDepth {
		s.NLFallbacks++
		return s.nestedLoopLocked(bf, pf, emit)
	}
	s.Repartitions++
	subB := make([]*spillFile, s.fanout)
	subP := make([]*spillFile, s.fanout)
	defer func() {
		for i := range subB {
			subB[i].discard()
			subP[i].discard()
		}
	}()
	route := func(files []*spillFile, side string, key int64, row types.Row) error {
		i := hashPart(key, depth+1, s.fanout)
		if files[i] == nil {
			sf, err := s.newFileLocked(side)
			if err != nil {
				return err
			}
			files[i] = sf
		}
		return files[i].writeRow(row)
	}
	err := bf.readRows(func(r types.Row) error {
		return route(subB, "build", r[s.keyIdx].Int(), r)
	})
	if err != nil {
		return err
	}
	err = pf.readRows(func(tagged types.Row) error {
		return route(subP, "probe", tagged[1+tagged[0].Int()].Int(), tagged)
	})
	if err != nil {
		return err
	}
	for i := range subB {
		if subB[i] == nil || subB[i].n == 0 || subP[i] == nil || subP[i].n == 0 {
			continue
		}
		if err := s.joinSpilledLocked(subB[i], subP[i], depth+1, emit); err != nil {
			return err
		}
	}
	return nil
}

// nestedLoopLocked is the depth-exhausted fallback: build budget-sized
// chunks of the build file and stream the whole probe file past each — a
// block nested-loop join. It is exact for any input, including a single
// join key larger than the entire budget, at the cost of rescanning the
// probe file once per chunk.
func (s *SpillingHashTable) nestedLoopLocked(bf, pf *spillFile, emit func(buildRow, probeRow types.Row) error) error {
	ht := NewHashTable(s.keyIdx)
	chunkBytes, chunkRows := int64(0), 0
	flush := func() error {
		if chunkRows == 0 {
			return nil
		}
		ht.Build()
		err := pf.readRows(func(tagged types.Row) error {
			keyIdx := int(tagged[0].Int())
			probeRow := tagged[1:]
			for _, b := range ht.Probe(probeRow[keyIdx].Int()) {
				if err := emit(b, probeRow); err != nil {
					return err
				}
			}
			return nil
		})
		s.releaseLocked(chunkBytes)
		ht = NewHashTable(s.keyIdx)
		chunkBytes, chunkRows = 0, 0
		return err
	}
	err := bf.readRows(func(r types.Row) error {
		n := rowBytes(r)
		if chunkRows > 0 && !s.bud.TryReserve(n) {
			if err := flush(); err != nil {
				return err
			}
		}
		if chunkRows == 0 {
			// The chunk must make progress even when siblings hold the
			// whole budget: force the first row in, recording overshoot.
			s.bud.Force(n)
			s.reserved += n
		} else {
			s.reserved += n // TryReserve above succeeded
		}
		chunkBytes += n
		chunkRows++
		return ht.Insert(r)
	})
	if err != nil {
		return err
	}
	return flush()
}

// Close implements JoinTable.
func (s *SpillingHashTable) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cleanupLocked()
	return nil
}

func (s *SpillingHashTable) cleanupLocked() {
	if s.closed {
		return
	}
	s.closed = true
	for _, p := range s.parts {
		p.build.discard()
		p.probe.discard()
		p.build, p.probe, p.rows, p.ht = nil, nil, nil, nil
	}
	os.RemoveAll(s.dir)
	s.releaseLocked(s.reserved)
	if s.ownBud {
		s.bud.Close()
	}
}
