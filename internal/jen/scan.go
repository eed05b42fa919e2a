package jen

import (
	"fmt"
	"sync"

	"hybridwh/internal/batch"
	"hybridwh/internal/bloom"
	"hybridwh/internal/expr"
	"hybridwh/internal/format"
	"hybridwh/internal/mem"
	"hybridwh/internal/metrics"
	"hybridwh/internal/par"
	"hybridwh/internal/skew"
	"hybridwh/internal/types"
)

// KeyFilter tests whether a join key can participate in the join. The
// Bloom-filter algorithms use BloomKeyFilter; the exact semijoin baseline
// uses a key set.
type KeyFilter interface {
	TestKey(key int64) bool
}

// BloomKeyFilter adapts a Bloom filter to KeyFilter.
type BloomKeyFilter struct{ F *bloom.Filter }

// TestKey implements KeyFilter.
func (b BloomKeyFilter) TestKey(key int64) bool {
	return b.F.TestHash(types.BloomHashKey(key))
}

// CascadeFilter pairs a key filter with the projected-layout column it
// tests, so an N-way scan can apply one filter per join edge.
type CascadeFilter struct {
	Filter KeyFilter
	KeyIdx int
}

// ScanSpec describes one worker's filtered, projected table scan — the read
// threads plus process thread of Figure 7. Rows that survive every filter
// are handed to the caller's yield, which typically partitions them into
// send buffers (repartition/zigzag), probes or builds hash tables
// (broadcast), or streams them to a DB worker (DB-side join).
type ScanSpec struct {
	Plan   *ScanPlan
	Worker int
	// Proj lists file-schema columns to materialize; output rows are in
	// Proj order. nil keeps all columns.
	Proj []int
	// Pred is the local predicate over the *projected* layout.
	Pred expr.Expr
	// Pruner holds row-group range constraints over the *file* schema
	// (HWC predicate pushdown).
	Pruner *format.Pruner
	// DBFilter, when set, drops rows whose join key it rejects (BF_DB or
	// the semijoin key set).
	DBFilter KeyFilter
	// Cascade applies additional key filters, each against its own key
	// column of the projected layout — the cascaded semi-join reduction of
	// an N-way plan, where every dimension's Bloom filter drops fact rows
	// before they ship. Filters apply in order after DBFilter.
	Cascade []CascadeFilter
	// BuildBloom, when set, is populated with the BloomKey of every
	// surviving row (BF_H construction during the scan — zigzag step 3b).
	// With Threads > 1 each process goroutine fills a private filter of the
	// same geometry; the privates are OR-ed into BuildBloom at the end, so
	// the final filter is independent of batch interleaving.
	BuildBloom *bloom.Filter
	// BuildSketch, when set, receives the join key of every surviving row —
	// the heavy-hitter detection pass for the skew-resilient shuffle. Like
	// BuildBloom, with Threads > 1 each process goroutine fills a private
	// clone and the privates merge at the end; the sketch's merge is a
	// pointwise counter sum, so the result is independent of batch
	// interleaving whenever the per-thread sketches stay exact (see
	// skew.Sketch).
	BuildSketch *skew.Sketch
	// BloomKeyIdx is the join-key column in the projected layout.
	BloomKeyIdx int
	// Progress, when set, receives live (processed, survived) row counts as
	// each batch clears the filter stage — the mid-scan observation tap for
	// adaptive execution. Unlike BuildBloom/BuildSketch it is shared across
	// threads directly (it is atomic), so its counts are visible while the
	// scan is still running.
	Progress *Progress
	// Threads is the number of process goroutines consuming scanned batches
	// (the morsel workers of the paper's Figure 7 multi-threaded JEN
	// worker). 0 or 1 runs the process stage on the caller's goroutine,
	// byte-for-byte the sequential pipeline. With Threads > 1, yield is
	// called concurrently and must be safe for concurrent use.
	Threads int
	// Mem, when set, is the query's memory budget: the scan's batch pool
	// charges loaned batches against it, so a query's scan buffers count
	// toward its grant alongside its join tables and aggregates.
	Mem *mem.Budget
}

// projWidth returns the projected column count of the spec's output layout.
func (spec *ScanSpec) projWidth() int {
	if spec.Proj != nil {
		return len(spec.Proj)
	}
	return spec.Plan.Table.Schema.Len()
}

// ScanFilterBatches runs the pipelined scan batch-at-a-time: one read
// goroutine per disk decodes pooled columnar batches and feeds them to the
// caller's goroutine, which narrows each batch's selection with the
// predicate and the database key filter, populates BF_H from the survivors,
// and yields the batch. Reading and processing overlap, as in the paper's
// worker (reads per disk, one process thread).
//
// Yielded batches are on loan: they are valid only for the duration of the
// yield call and are returned to the scan's pool afterwards, so consumers
// must copy anything they keep (shuffle buffers and hash-table inserts
// already do).
func (c *Cluster) ScanFilterBatches(spec ScanSpec, yield func(*batch.Batch) error) error {
	units := spec.Plan.Units[spec.Worker]
	if len(units) == 0 {
		return nil
	}
	// Partition units by disk; remote units (-1) form their own stream, as
	// a network-read thread would.
	byDisk := map[int][]WorkUnit{}
	for _, u := range units {
		byDisk[u.Disk] = append(byDisk[u.Disk], u)
	}
	disks := make([]int, 0, len(byDisk))
	for d := range byDisk {
		disks = append(disks, d)
	}

	pool := batch.NewPool(spec.projWidth(), c.cfg.BatchRows)
	if spec.Mem != nil {
		pool.SetAccounter(spec.Mem)
	}
	batchCh := make(chan *batch.Batch, 4*len(disks))
	stop := make(chan struct{})
	var stopOnce sync.Once

	var g par.Group
	var scanStats struct {
		sync.Mutex
		s format.ScanStats
	}
	for _, d := range disks {
		us := byDisk[d]
		g.Go(func() error {
			for _, u := range us {
				st, err := c.scanUnitBatches(u, spec, pool, func(b *batch.Batch) error {
					select {
					case batchCh <- b:
						return nil
					case <-stop:
						pool.Put(b)
						return errScanStopped
					}
				})
				scanStats.Lock()
				scanStats.s.Add(st)
				scanStats.Unlock()
				if err == errScanStopped {
					return nil
				}
				if err != nil {
					stopOnce.Do(func() { close(stop) })
					return fmt.Errorf("jen: worker %d scan %s: %w", spec.Worker, u.Path, err)
				}
			}
			return nil
		})
	}
	// The closer joins the readers and seals the channel; its own Wait below
	// hands the reader error back without an unabortable channel receive.
	var closer par.Group
	closer.Go(func() error {
		err := g.Wait()
		close(batchCh)
		return err
	})

	// Process stage. The "processed" counter charges physical rows — what
	// the paper's process thread pulls off the read queue — so pre-narrowed
	// selections do not change it. One morsel worker per spec.Threads; each
	// filters, bloom-probes and yields independently, always draining the
	// channel after a failure so readers never block forever.
	threads := spec.Threads
	if threads < 1 {
		threads = 1
	}
	locals := make([]*bloom.Filter, threads)
	sketches := make([]*skew.Sketch, threads)
	work := func(t int) error {
		tspec := spec
		if spec.BuildBloom != nil && threads > 1 {
			tspec.BuildBloom = bloom.New(spec.BuildBloom.MBits(), spec.BuildBloom.K())
			locals[t] = tspec.BuildBloom
		}
		if spec.BuildSketch != nil && threads > 1 {
			tspec.BuildSketch = spec.BuildSketch.Clone()
			sketches[t] = tspec.BuildSketch
		}
		var procErr error
		var processed int64
		var hashes []uint64
		var hits []bool
		for b := range batchCh {
			if procErr != nil {
				pool.Put(b) // drain so readers do not block forever
				continue
			}
			processed += int64(b.Size())
			if err := c.filterBatch(tspec, b, &hashes, &hits); err != nil {
				procErr = err
			} else {
				spec.Progress.Add(int64(b.Size()), int64(b.Len()))
				if b.Len() > 0 {
					if err := yield(b); err != nil {
						procErr = err
					}
				}
			}
			pool.Put(b)
			if procErr != nil {
				stopOnce.Do(func() { close(stop) })
			}
		}
		c.rec.AddAt(metrics.JENProcessTuples, spec.Worker, processed)
		c.rec.AddAt(metrics.JENMorselTuples, t, processed)
		return procErr
	}
	var procErr error
	if threads == 1 {
		procErr = work(0)
	} else {
		var pg par.Group
		for t := 0; t < threads; t++ {
			t := t
			pg.Go(func() error { return work(t) })
		}
		procErr = pg.Wait()
		if spec.BuildBloom != nil && procErr == nil {
			// Bitwise OR is commutative, so the merged filter does not
			// depend on which thread processed which batch.
			for _, l := range locals {
				if err := spec.BuildBloom.Union(l); err != nil {
					procErr = err
					break
				}
			}
		}
		if spec.BuildSketch != nil && procErr == nil {
			// Counter addition is commutative too; see skew.Sketch.Merge for
			// when the merged summary is fully interleaving-independent.
			for _, sk := range sketches {
				spec.BuildSketch.Merge(sk)
			}
		}
	}
	rerr := closer.Wait()

	c.rec.AddAt(metrics.JENScanBytes, spec.Worker, scanStats.s.BytesRead)
	c.rec.AddAt(metrics.JENScanRows, spec.Worker, scanStats.s.RowsRead)

	if procErr != nil {
		return procErr
	}
	return rerr
}

// filterBatch applies the predicate, the database key filter and BF_H
// construction to one batch, narrowing its selection in place. The Bloom
// variants run as hash-batch kernels; other KeyFilters go row-at-a-time.
func (c *Cluster) filterBatch(spec ScanSpec, b *batch.Batch, hashes *[]uint64, hits *[]bool) error {
	if err := expr.FilterBatch(spec.Pred, b); err != nil {
		return err
	}
	if spec.DBFilter != nil && b.Len() > 0 {
		keys := b.Col(spec.BloomKeyIdx)
		if bf, isBloom := spec.DBFilter.(BloomKeyFilter); isBloom {
			hs := (*hashes)[:0]
			_ = b.Each(func(i int) error {
				hs = append(hs, types.BloomHashKey(keys[i].Int()))
				return nil
			})
			*hashes = hs
			*hits = bf.F.TestHashes(hs, (*hits)[:0])
			j := 0
			res := *hits
			b.Filter(func(int) bool { ok := res[j]; j++; return ok })
		} else {
			b.Filter(func(i int) bool { return spec.DBFilter.TestKey(keys[i].Int()) })
		}
	}
	for _, cf := range spec.Cascade {
		if b.Len() == 0 {
			break
		}
		keys := b.Col(cf.KeyIdx)
		if bf, isBloom := cf.Filter.(BloomKeyFilter); isBloom {
			hs := (*hashes)[:0]
			_ = b.Each(func(i int) error {
				hs = append(hs, types.BloomHashKey(keys[i].Int()))
				return nil
			})
			*hashes = hs
			*hits = bf.F.TestHashes(hs, (*hits)[:0])
			j := 0
			res := *hits
			b.Filter(func(int) bool { ok := res[j]; j++; return ok })
		} else {
			b.Filter(func(i int) bool { return cf.Filter.TestKey(keys[i].Int()) })
		}
	}
	if spec.BuildBloom != nil && b.Len() > 0 {
		keys := b.Col(spec.BloomKeyIdx)
		hs := (*hashes)[:0]
		_ = b.Each(func(i int) error {
			hs = append(hs, types.BloomHashKey(keys[i].Int()))
			return nil
		})
		*hashes = hs
		spec.BuildBloom.AddHashes(hs)
	}
	if spec.BuildSketch != nil && b.Len() > 0 {
		keys := b.Col(spec.BloomKeyIdx)
		_ = b.Each(func(i int) error {
			spec.BuildSketch.Add(keys[i].Int())
			return nil
		})
	}
	return nil
}

// ScanPrefix returns the first n rows, at full width, of worker's share of
// the scan plan. It reads the worker's work units in plan order on the
// caller's goroutine and stops inside the row group (HWC) or split (text)
// that fills the quota. With no read-ahead and no race between disk
// readers, the rows are a deterministic function of the plan. The worker's
// scan row and byte counters are charged for what was read.
func (c *Cluster) ScanPrefix(p *ScanPlan, worker, n int) ([]types.Row, error) {
	spec := ScanSpec{Plan: p, Worker: worker}
	pool := batch.NewPool(spec.projWidth(), c.cfg.BatchRows)
	rows := make([]types.Row, 0, n)
	var stats format.ScanStats
	var err error
	for _, u := range p.Units[worker] {
		if len(rows) >= n {
			break
		}
		var st format.ScanStats
		st, err = c.scanUnitBatches(u, spec, pool, func(b *batch.Batch) error {
			_ = b.Each(func(i int) error {
				if len(rows) < n {
					rows = append(rows, b.CloneRow(i))
				}
				return nil
			})
			pool.Put(b)
			if len(rows) >= n {
				return errPrefixFull
			}
			return nil
		})
		stats.Add(st)
		if err == errPrefixFull {
			err = nil
		}
		if err != nil {
			err = fmt.Errorf("jen: worker %d prefix scan %s: %w", worker, u.Path, err)
			break
		}
	}
	c.rec.AddAt(metrics.JENScanBytes, worker, stats.BytesRead)
	c.rec.AddAt(metrics.JENScanRows, worker, stats.RowsRead)
	return rows, err
}

// errPrefixFull stops ScanPrefix once its quota is met.
var errPrefixFull = fmt.Errorf("jen: prefix complete")

// errScanStopped aborts a reader when the process stage has failed.
var errScanStopped = fmt.Errorf("jen: scan stopped")

func (c *Cluster) scanUnitBatches(u WorkUnit, spec ScanSpec, pool *batch.Pool, yield func(*batch.Batch) error) (format.ScanStats, error) {
	atNode := spec.Worker // worker i on DataNode i: local replicas short-circuit
	src := c.Source(u.Path, atNode)
	switch {
	case u.Meta != nil:
		return format.ScanHWCBatches(src, u.Meta, u.Groups, spec.Proj, spec.Pruner, u.ChargeFooter, pool, yield)
	default:
		return format.ScanTextBatches(src, spec.Plan.Table.Schema, u.Start, u.End, spec.Proj, pool, yield)
	}
}
