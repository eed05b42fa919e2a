// Package core implements the paper's contribution: the four join
// algorithms for hybrid warehouses (Section 3) executed across the parallel
// database (internal/edw) and JEN (internal/jen), exchanging Bloom filters
// and rows over the message bus (internal/netsim) in parallel between every
// DB worker and its group of JEN workers.
//
// Each algorithm runs one goroutine per DB worker and one per JEN worker —
// the worker programs — that communicate only through the bus, exactly
// mirroring the paper's data flows (Figures 1–4). Queries are issued at the
// database side and results return to the database side (Section 2).
package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"hybridwh/internal/cluster"
	"hybridwh/internal/edw"
	"hybridwh/internal/jen"
	"hybridwh/internal/mem"
	"hybridwh/internal/metrics"
	"hybridwh/internal/netsim"
	"hybridwh/internal/plan"
	"hybridwh/internal/types"
)

// Algorithm selects a join algorithm.
type Algorithm int

// The join algorithms of Section 3.
const (
	// DBSide ships filtered HDFS data into the database (Polybase-style).
	DBSide Algorithm = iota
	// DBSideBloom is DBSide with BF_DB pruning the HDFS scan (Figure 1).
	DBSideBloom
	// Broadcast sends T' to every JEN worker; no HDFS shuffle (Figure 2).
	Broadcast
	// Repartition shuffles L' and routes T' by the agreed hash (Figure 3,
	// without the Bloom filter).
	Repartition
	// RepartitionBloom is Repartition with BF_DB (Figure 3).
	RepartitionBloom
	// Zigzag uses Bloom filters both ways: BF_DB prunes the shuffle, BF_H
	// prunes the database transfer (Figure 4).
	Zigzag
)

// String names the algorithm as the paper's figures do.
func (a Algorithm) String() string {
	switch a {
	case DBSide:
		return "db"
	case DBSideBloom:
		return "db(BF)"
	case Broadcast:
		return "broadcast"
	case Repartition:
		return "repartition"
	case RepartitionBloom:
		return "repartition(BF)"
	case Zigzag:
		return "zigzag"
	case SemiJoin:
		return "semijoin"
	case ZigzagDBVariant:
		return "zigzag-db"
	default:
		return fmt.Sprintf("algorithm(%d)", int(a))
	}
}

// Algorithms lists every implemented algorithm: the paper's six plus the
// extensions (the exact-semijoin baseline and the dismissed DB-side zigzag
// variant).
func Algorithms() []Algorithm {
	return []Algorithm{DBSide, DBSideBloom, Broadcast, Repartition, RepartitionBloom, Zigzag, SemiJoin, ZigzagDBVariant}
}

// PaperAlgorithms lists the six algorithms the paper evaluates.
func PaperAlgorithms() []Algorithm {
	return []Algorithm{DBSide, DBSideBloom, Broadcast, Repartition, RepartitionBloom, Zigzag}
}

// Config tunes the engine.
type Config struct {
	// BloomBits and BloomHashes size every Bloom filter. The paper uses
	// 128M bits and 2 hashes for 16M join keys; scale proportionally.
	BloomBits   uint64
	BloomHashes int
	// BatchRows is the wire batch size. Defaults to the JEN batch size.
	BatchRows int
	// SpillBudgetBytes bounds each JEN worker's in-memory hash table for
	// the repartition-based joins; beyond it the build side grace-spills
	// to disk (the paper's stated future work). Zero = unbounded memory,
	// the paper's current behaviour.
	SpillBudgetBytes int64
	// SpillDir hosts spill files ("" = the OS temp dir).
	SpillDir string
	// BroadcastRelay switches the broadcast join to the paper's alternative
	// §4.3 transfer scheme: each DB worker ships its partition to a single
	// JEN worker, which relays it to all others. Less strain on the
	// inter-cluster link, one extra intra-HDFS transfer round (the paper
	// measured the direct scheme faster and kept it; this option is the
	// ablation).
	BroadcastRelay bool
	// WorkerThreads is the intra-worker parallelism degree: how many morsel
	// goroutines each JEN worker runs for its scan→filter→shuffle/build
	// stage and its probe stage (the paper's multi-threaded JEN worker,
	// Figure 7). Defaults to runtime.GOMAXPROCS(0). 1 reproduces the
	// single-threaded pipeline bit-identically, counters included; higher
	// degrees keep every deterministic counter (totals, message and byte
	// counts) and the query result identical, while the per-thread split
	// (metrics.JENMorselTuples/JoinProbeSplit .max) depends on scheduling.
	// The spilling join ignores it and probes single-threaded.
	WorkerThreads int
	// SkewThreshold enables skew-resilient shuffling for the repartition
	// and zigzag joins: any join key holding at least this share of a
	// worker-set's surviving HDFS rows (as measured by a streaming
	// heavy-hitter sketch built during the scan) is treated as hot — its L'
	// rows scatter round-robin across all JEN workers instead of hashing to
	// one, and its T' rows are replicated to every JEN worker, keeping the
	// join exact (see internal/skew). 0 disables the machinery entirely and
	// the shuffle is bit-identical to the plain agreed-hash partitioner.
	// Sensible values are 1/(2·JENWorkers) .. 0.2. The skew path defers the
	// shuffle until the scan completes (the hot set must be agreed first),
	// trading scan/shuffle overlap for balance. At WorkerThreads=1 every
	// counter stays deterministic; with more threads the round-robin
	// placement of hot rows depends on scan interleaving, so
	// per-destination shuffle splits (the .max counters) become diagnostic
	// while totals and results stay exact.
	SkewThreshold float64
	// SkewSketchKeys is the heavy-hitter sketch capacity (counters per
	// thread). The sketch is exact — and the hot set independent of thread
	// count and merge order — while each thread sees fewer than twice this
	// many distinct surviving keys; beyond that the Misra-Gries error bound
	// (≤ rows/capacity) still guarantees every key above SkewThreshold is
	// caught, with possible borderline extras. Defaults to 256.
	SkewSketchKeys int
	// AdaptiveSwitch enables mid-query algorithm switching for the
	// repartition-based joins (see adaptive.go): after the first
	// AdaptBatches wire batches of the JEN scan, the observed σ_L, |T'| and
	// hot-key share re-cost the committed plan against broadcasting T' and
	// against the hybrid skew partitioner, and the cheaper plan (past an
	// AdaptMargin hysteresis) takes over mid-flight. Results are exact
	// either way. When on, it subsumes the static skew path for those
	// algorithms: plain hash routing is the default and the hybrid
	// partitioner engages only by observed decision (SkewThreshold still
	// supplies the hot bar, defaulting to 1/(2·JENWorkers) when zero).
	AdaptiveSwitch bool
	// AdaptBatches is K, the number of wire batches each JEN worker buffers
	// before contributing its observation snapshot. Defaults to 8.
	AdaptBatches int
	// AdaptMargin is the hysteresis: an alternative plan must re-cost at
	// least this fraction cheaper than the committed plan to trigger a
	// switch. Defaults to 0.25.
	AdaptMargin float64
	// WireCompression frame-compresses every MsgRows payload with
	// internal/compress before it reaches the bus, trading CPU for
	// inter-cluster bandwidth (most visible on netsim.TCPBus links). Byte
	// counters record the compressed sizes. Both ends of the bus must agree
	// on the setting; the engine applies it symmetrically. A frame's
	// compressed size depends on the row order inside it, so combined with
	// WorkerThreads > 1 the byte counters leave the deterministic contract
	// (tuple and message counts stay exact).
	WireCompression bool
}

func (c Config) withDefaults(j *jen.Cluster) Config {
	if c.BloomBits == 0 {
		c.BloomBits = 128_000
	}
	if c.BloomHashes <= 0 {
		c.BloomHashes = 2
	}
	if c.BatchRows <= 0 {
		c.BatchRows = j.BatchRows()
	}
	if c.WorkerThreads <= 0 {
		c.WorkerThreads = runtime.GOMAXPROCS(0)
	}
	if c.SkewSketchKeys <= 0 {
		c.SkewSketchKeys = 256
	}
	if c.AdaptBatches <= 0 {
		c.AdaptBatches = 8
	}
	if c.AdaptMargin <= 0 {
		c.AdaptMargin = 0.25
	}
	return c
}

// Engine wires the two systems together.
type Engine struct {
	db  *edw.DB
	jen *jen.Cluster
	bus netsim.Bus
	rec *metrics.Recorder
	cfg Config

	routers map[string]*netsim.Router
	qid     atomic.Int64

	// Per-query memory budgets, keyed by the query's stream prefix ("q7/").
	// The prefix is already threaded through every worker program, so the
	// budget rides along without widening fifteen program signatures.
	budMu   sync.Mutex
	budgets map[string]*mem.Budget // guarded by budMu
}

// New registers every worker endpoint on the bus and returns an engine.
// All components must share the same metrics recorder.
func New(db *edw.DB, jc *jen.Cluster, bus netsim.Bus, rec *metrics.Recorder, cfg Config) (*Engine, error) {
	if db == nil || jc == nil || bus == nil {
		return nil, fmt.Errorf("core: db, jen and bus are all required")
	}
	if rec == nil {
		rec = metrics.New()
	}
	e := &Engine{db: db, jen: jc, bus: bus, rec: rec, cfg: cfg.withDefaults(jc), routers: map[string]*netsim.Router{}, budgets: map[string]*mem.Budget{}}
	for i := 0; i < db.Workers(); i++ {
		if err := e.register(cluster.DBName(i)); err != nil {
			return nil, err
		}
	}
	for i := 0; i < jc.Workers(); i++ {
		if err := e.register(cluster.JENName(i)); err != nil {
			return nil, err
		}
	}
	return e, nil
}

func (e *Engine) register(name string) error {
	inbox, err := e.bus.Register(name)
	if err != nil {
		return err
	}
	e.routers[name] = netsim.NewRouter(inbox)
	return nil
}

// Close stops the routers and the bus.
func (e *Engine) Close() error {
	for _, r := range e.routers {
		r.Stop()
	}
	return e.bus.Close()
}

// Recorder returns the shared metrics recorder.
func (e *Engine) Recorder() *metrics.Recorder { return e.rec }

// DB returns the database engine.
func (e *Engine) DB() *edw.DB { return e.db }

// JEN returns the HDFS-side engine.
func (e *Engine) JEN() *jen.Cluster { return e.jen }

// Bus returns the message bus.
func (e *Engine) Bus() netsim.Bus { return e.bus }

// budget returns the memory budget registered for a query's stream prefix,
// or nil when the query runs ungoverned.
func (e *Engine) budget(qs string) *mem.Budget {
	e.budMu.Lock()
	defer e.budMu.Unlock()
	return e.budgets[qs]
}

// Result is a completed query, returned at the database side.
type Result struct {
	Rows      []types.Row
	Schema    types.Schema
	Algorithm Algorithm
	// DBJoinStrategy is the database optimizer's final-join choice for the
	// DB-side algorithms (RepartitionBoth otherwise irrelevant).
	DBJoinStrategy edw.JoinStrategy
	// Switched reports the adaptive layer (Config.AdaptiveSwitch) changed
	// the plan mid-query; SwitchedTo names the runtime strategy it changed
	// to and SwitchReason carries the observed statistics and re-costs that
	// justified it.
	Switched     bool
	SwitchedTo   string
	SwitchReason string
	// Metrics is a snapshot of the counters accumulated during the run.
	Metrics map[string]int64
}

// Run executes the query with the chosen algorithm and returns the result
// at the database side.
func (e *Engine) Run(q *plan.JoinQuery, alg Algorithm) (*Result, error) {
	return e.RunCtx(context.Background(), q, alg)
}

// RunCtx is Run under a caller-supplied context: canceling ctx (or its
// deadline expiring) aborts the query — every worker program unwinds, the
// wire protocol is torn down, and the cancellation cause comes back wrapped
// in the returned error (errors.Is sees context.Canceled or
// context.DeadlineExceeded).
func (e *Engine) RunCtx(ctx context.Context, q *plan.JoinQuery, alg Algorithm) (*Result, error) {
	return e.RunCtxOpts(ctx, q, alg, RunOpts{})
}

// RunOpts carries per-run options that default to the engine's config.
type RunOpts struct {
	// Budget, when non-nil, governs this query's operator memory: scan
	// pools, hash-join builds and aggregation state all charge against it,
	// and the dynamic hybrid hash join sheds partitions to stay inside it.
	// It overrides Config.SpillBudgetBytes for this run. The caller keeps
	// ownership (the engine never closes it), so one budget may be shared
	// across queries — the scheduler's global-governance mode.
	Budget *mem.Budget
}

// RunCtxOpts is RunCtx with per-run options; RunOpts{} reproduces RunCtx
// exactly.
func (e *Engine) RunCtxOpts(ctx context.Context, q *plan.JoinQuery, alg Algorithm, opts RunOpts) (*Result, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: query not started: %w", err)
	}
	qs := fmt.Sprintf("q%d/", e.qid.Add(1))
	if opts.Budget != nil {
		e.budMu.Lock()
		e.budgets[qs] = opts.Budget
		e.budMu.Unlock()
		defer func() {
			e.budMu.Lock()
			delete(e.budgets, qs)
			e.budMu.Unlock()
		}()
	}
	var (
		res *Result
		err error
	)
	switch alg {
	case DBSide, DBSideBloom:
		res, err = e.runDBSide(ctx, qs, q, alg == DBSideBloom)
	case Broadcast:
		res, err = e.runBroadcast(ctx, qs, q)
	case Repartition, RepartitionBloom, Zigzag:
		res, err = e.runHDFSSide(ctx, qs, q, alg)
	case SemiJoin:
		res, err = e.runSemiJoin(ctx, qs, q)
	case ZigzagDBVariant:
		res, err = e.runZigzagDB(ctx, qs, q)
	default:
		return nil, fmt.Errorf("core: unknown algorithm %d", alg)
	}
	if err != nil {
		return nil, fmt.Errorf("core: %s query aborted: %w", alg, err)
	}
	res.Algorithm = alg
	res.Schema = q.OutputSchema
	res.Metrics = e.rec.Snapshot()
	return res, nil
}
