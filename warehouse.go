// Package hybridwh is a from-scratch reproduction of "Joins for Hybrid
// Warehouses: Exploiting Massive Parallelism in Hadoop and Enterprise Data
// Warehouses" (Tian, Zou, Özcan, Goncalves, Pirahesh; EDBT 2015).
//
// A Warehouse assembles the whole system: a shared-nothing parallel database
// holding the transaction table T, a simulated HDFS cluster holding the log
// table L (text or columnar format), the JEN execution engine on the HDFS
// side, and the message bus connecting every worker. Queries are issued in
// SQL at the database side; the engine executes one of the paper's join
// algorithms — DB-side (±Bloom filter), HDFS-side broadcast, repartition
// (±Bloom filter) or zigzag — chosen explicitly or by the advisor, and a
// calibrated cost model reports paper-scale execution-time estimates next to
// the exact tuple and byte counters the run measured.
//
//	w, _ := hybridwh.Open(hybridwh.Config{})
//	defer w.Close()
//	w.LoadPaperData(datagen.Data{TRows: 160_000, LRows: 1_500_000, Keys: 1_600})
//	res, _ := w.Query(`select extract_group(L.groupByExtractCol), count(*)
//	                   from T, L where T.joinKey = L.joinKey ... `)
package hybridwh

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"hybridwh/internal/catalog"
	"hybridwh/internal/core"
	"hybridwh/internal/costmodel"
	"hybridwh/internal/datagen"
	"hybridwh/internal/edw"
	"hybridwh/internal/expr"
	"hybridwh/internal/format"
	"hybridwh/internal/hdfs"
	"hybridwh/internal/jen"
	"hybridwh/internal/mem"
	"hybridwh/internal/metrics"
	"hybridwh/internal/netsim"
	"hybridwh/internal/plan"
	"hybridwh/internal/sched"
	"hybridwh/internal/sqlparse"
	"hybridwh/internal/types"
)

// Config sizes and wires the hybrid warehouse. The zero value reproduces
// the paper's topology at 1/1000 data scale over the in-process transport.
type Config struct {
	// DBWorkers is the parallel database worker count (paper: 30).
	DBWorkers int
	// JENWorkers is the JEN worker count, one per HDFS DataNode (paper: 30).
	JENWorkers int
	// DisksPerNode is the data-disk count per DataNode (paper: 4).
	DisksPerNode int
	// Scale is the data scale divisor relative to the paper (default 1000,
	// i.e. the simulation holds 1/1000 of the paper's rows). The cost
	// model multiplies measured counters by Scale.
	Scale float64
	// Format is the HDFS file format: format.HWCName (default, the
	// Parquet stand-in) or format.TextName.
	Format string
	// Transport selects the bus: "chan" (default) or "tcp".
	Transport string
	// Seed makes data generation and block placement deterministic.
	Seed int64
	// BatchRows is the pipeline/wire batch size (default 512).
	BatchRows int
	// BlockSize is the HDFS block size. The default (256 KiB) keeps many
	// blocks per worker at simulation scales so assignments stay balanced;
	// raise it for larger datasets.
	BlockSize int
	// HDFSFiles is how many files the L table is written as (default 8).
	HDFSFiles int
	// NoLocality disables locality-aware block assignment (ablation).
	NoLocality bool
	// BloomBits/BloomHashes size every Bloom filter; defaults follow the
	// paper's 128M bits / 2 hashes scaled by Scale.
	BloomBits   uint64
	BloomHashes int
	// SpillBudgetBytes bounds each JEN worker's in-memory join hash table;
	// beyond it the build side grace-spills to disk (the paper's stated
	// future work). Zero keeps the paper's all-in-memory behaviour.
	SpillBudgetBytes int64
	// SpillDir hosts spill files ("" = the OS temp dir).
	SpillDir string
	// BroadcastRelay switches the broadcast join to the §4.3 relay transfer
	// scheme (each DB worker ships to one JEN worker, which relays).
	BroadcastRelay bool
	// SkewThreshold enables the skew-resilient shuffle: join keys holding at
	// least this share of the surviving HDFS scan get hybrid treatment
	// (their L rows scattered round-robin, the matching T' rows replicated).
	// 0 disables it with bit-identical plain-repartition behaviour. See
	// core.Config.SkewThreshold.
	SkewThreshold float64
	// SkewSketchKeys sizes the per-worker heavy-hitter sketch (default 256).
	SkewSketchKeys int
	// AdaptiveSwitch enables mid-query algorithm switching for the
	// HDFS-side shuffle joins: after the first AdaptBatches wire batches of
	// the JEN scan the engine compares the observed selectivity, |T'| and
	// hot-key share against the committed plan's assumptions and, when an
	// alternative is cheaper by more than AdaptMargin, switches to a
	// broadcast of T' or escalates to the hybrid skew partitioner without
	// restarting the query. Results are identical to the never-switch run.
	// See core.Config.AdaptiveSwitch.
	AdaptiveSwitch bool
	// AdaptBatches is the per-worker scan prefix (in wire batches) observed
	// before the switch decision (default 8).
	AdaptBatches int
	// AdaptMargin is the hysteresis margin: an alternative plan must be at
	// least this fraction cheaper to trigger a switch (default 0.25).
	AdaptMargin float64
	// QueryTimeout bounds each query's wall-clock time. When it expires the
	// query aborts across both clusters and Query returns an error wrapping
	// context.DeadlineExceeded. Zero means no deadline; QueryCtx offers
	// per-call control. Submit does not apply it (the handle's caller owns
	// the context).
	QueryTimeout time.Duration
	// MemBudgetBytes enables concurrent query serving under a global
	// operator-memory budget: every query is admitted by a scheduler
	// (internal/sched) that grants it a slice of this budget before it
	// runs, classifies it into a point or scan lane, and exposes the
	// running set via Processes/Kill. Query/QueryCtx route through the
	// scheduler transparently; Submit adds asynchronous submission. Under
	// a budget the join build sides become dynamic hybrid hash joins that
	// shed partitions to disk instead of overcommitting. Zero disables the
	// scheduler (the paper's one-query-at-a-time behaviour).
	MemBudgetBytes int64
	// MaxConcurrent caps concurrently executing queries when the scheduler
	// is enabled (default 8).
	MaxConcurrent int
	// StarNoCascade disables cascaded semi-join reduction in star mode:
	// the analyzer stops pushing dimension Bloom filters into the fact
	// scan, so every fact row is shuffled. Results are identical; only the
	// movement counters change. For A/B experiments (experiments star1).
	StarNoCascade bool
}

func (c Config) withDefaults() Config {
	if c.DBWorkers <= 0 {
		c.DBWorkers = 30
	}
	if c.JENWorkers <= 0 {
		c.JENWorkers = 30
	}
	if c.DisksPerNode <= 0 {
		c.DisksPerNode = 4
	}
	if c.Scale <= 0 {
		c.Scale = 1000
	}
	if c.Format == "" {
		c.Format = format.HWCName
	}
	if c.Transport == "" {
		c.Transport = "chan"
	}
	if c.HDFSFiles <= 0 {
		c.HDFSFiles = 2 * c.JENWorkers
	}
	if c.BlockSize <= 0 {
		c.BlockSize = 256 << 10
	}
	if c.BloomBits == 0 {
		c.BloomBits = uint64(128_000_000 / c.Scale)
		if c.BloomBits < 1024 {
			c.BloomBits = 1024
		}
	}
	if c.BloomHashes <= 0 {
		c.BloomHashes = 2
	}
	return c
}

// Warehouse is an assembled hybrid warehouse.
type Warehouse struct {
	cfg Config

	rec  *metrics.Recorder
	db   *edw.DB
	dfs  *hdfs.Cluster
	cat  *catalog.Catalog
	jenc *jen.Cluster
	bus  netsim.Bus
	eng  *core.Engine
	schd *sched.Scheduler // nil unless Config.MemBudgetBytes > 0

	model *costmodel.Model
	reg   *expr.Registry

	data     datagen.Data
	dbTable  string
	hdfsName string

	// Star mode (LoadStar): the fact table name on HDFS and the loaded
	// star spec. Mutually exclusive with the two-table paper dataset.
	star     *datagen.Star
	starFact string

	// The advisor's samples of L, drawn once per (table, budget) on first
	// use (sampling.go). sampleDraws counts draws.
	sampleMu    sync.Mutex
	samples     map[sampleKey][]types.Row // guarded by sampleMu
	sampleDraws int                       // guarded by sampleMu
}

// Open assembles an empty warehouse.
func Open(cfg Config) (*Warehouse, error) {
	cfg = cfg.withDefaults()
	if cfg.Format != format.HWCName && cfg.Format != format.TextName {
		return nil, fmt.Errorf("hybridwh: unknown format %q", cfg.Format)
	}
	rec := metrics.New()
	db, err := edw.New(cfg.DBWorkers, rec)
	if err != nil {
		return nil, err
	}
	dfs := hdfs.New(hdfs.Config{
		DataNodes:    cfg.JENWorkers,
		DisksPerNode: cfg.DisksPerNode,
		BlockSize:    cfg.BlockSize,
		Replication:  2,
		Seed:         cfg.Seed,
	})
	cat := catalog.New()
	jenc, err := jen.New(jen.Config{
		Workers:   cfg.JENWorkers,
		BatchRows: cfg.BatchRows,
		Locality:  !cfg.NoLocality,
	}, dfs, cat, rec)
	if err != nil {
		return nil, err
	}
	var bus netsim.Bus
	switch cfg.Transport {
	case "chan":
		bus = netsim.NewChanBus(0)
	case "tcp":
		bus = netsim.NewTCPBus(0)
	default:
		return nil, fmt.Errorf("hybridwh: unknown transport %q", cfg.Transport)
	}
	eng, err := core.New(db, jenc, bus, rec, core.Config{
		BloomBits:        cfg.BloomBits,
		BloomHashes:      cfg.BloomHashes,
		BatchRows:        cfg.BatchRows,
		SpillBudgetBytes: cfg.SpillBudgetBytes,
		SpillDir:         cfg.SpillDir,
		BroadcastRelay:   cfg.BroadcastRelay,
		SkewThreshold:    cfg.SkewThreshold,
		SkewSketchKeys:   cfg.SkewSketchKeys,
		AdaptiveSwitch:   cfg.AdaptiveSwitch,
		AdaptBatches:     cfg.AdaptBatches,
		AdaptMargin:      cfg.AdaptMargin,
	})
	if err != nil {
		if cerr := bus.Close(); cerr != nil {
			return nil, errors.Join(err, cerr)
		}
		return nil, err
	}
	var schd *sched.Scheduler
	if cfg.MemBudgetBytes > 0 {
		schd, err = sched.New(sched.Config{
			MemBudgetBytes: cfg.MemBudgetBytes,
			MaxConcurrent:  cfg.MaxConcurrent,
			Recorder:       rec,
		})
		if err != nil {
			if cerr := eng.Close(); cerr != nil {
				return nil, errors.Join(err, cerr)
			}
			return nil, err
		}
	}
	return &Warehouse{
		cfg: cfg, rec: rec, db: db, dfs: dfs, cat: cat, jenc: jenc, bus: bus,
		eng: eng, schd: schd, model: costmodel.New(costmodel.DefaultRates()), reg: expr.NewRegistry(),
	}, nil
}

// Close drains the scheduler (queued queries fail, running ones finish)
// and releases the warehouse's transports and routers.
func (w *Warehouse) Close() error {
	if w.schd != nil {
		return errors.Join(w.schd.Close(), w.eng.Close())
	}
	return w.eng.Close()
}

// LoadPaperData generates and loads the Section 5 dataset: T into the
// database (hash-distributed on uniqKey, with the paper's two indexes and
// statistics) and L onto HDFS in the configured format.
func (w *Warehouse) LoadPaperData(data datagen.Data) error {
	if w.dbTable != "" {
		return fmt.Errorf("hybridwh: warehouse already loaded with %s ⋈ %s", w.dbTable, w.hdfsName)
	}
	if w.starFact != "" {
		return fmt.Errorf("hybridwh: warehouse already loaded in star mode")
	}
	data = data.WithDefaults()
	if data.Seed == 0 {
		data.Seed = w.cfg.Seed + 1
	}
	tSchema := datagen.TSchema()
	tbl, err := w.db.CreateTable("T", tSchema, tSchema.MustColIndex("uniqKey"))
	if err != nil {
		return err
	}
	const loadBatch = 8192
	batch := make([]types.Row, 0, loadBatch)
	err = data.GenT(func(r types.Row) error {
		batch = append(batch, r)
		if len(batch) == loadBatch {
			if err := tbl.Load(batch); err != nil {
				return err
			}
			batch = batch[:0]
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := tbl.Load(batch); err != nil {
		return err
	}
	tbl.BuildStats(128)
	cor := tSchema.MustColIndex("corPred")
	ind := tSchema.MustColIndex("indPred")
	jk := tSchema.MustColIndex("joinKey")
	// The paper's two indexes: (corPred, indPred) and
	// (corPred, indPred, joinKey) for index-only Bloom filter builds.
	if err := tbl.CreateIndex("t_cor_ind", []int{cor, ind}); err != nil {
		return err
	}
	if err := tbl.CreateIndex("t_cor_ind_key", []int{cor, ind, jk}); err != nil {
		return err
	}

	if err := jen.CreateHDFSTable(w.dfs, w.cat, "L", "/warehouse/L", w.cfg.Format,
		datagen.LSchema(), w.cfg.HDFSFiles, data.GenL); err != nil {
		return err
	}
	w.data = data
	w.dbTable = "T"
	w.hdfsName = "L"
	return nil
}

// Data returns the loaded dataset parameters.
func (w *Warehouse) Data() datagen.Data { return w.data }

// Option tunes one query execution.
type Option func(*queryOpts)

type queryOpts struct {
	alg      core.Algorithm
	forced   bool
	cardHint int64
	sigmaL   float64
	keep     bool
}

// WithAlgorithm forces a join algorithm instead of consulting the advisor.
func WithAlgorithm(a core.Algorithm) Option {
	return func(o *queryOpts) { o.alg = a; o.forced = true }
}

// WithCardHint passes the |L'| estimate the paper's read_hdfs UDF receives;
// it steers the DB-side join strategy and the advisor.
func WithCardHint(rows int64) Option {
	return func(o *queryOpts) { o.cardHint = rows }
}

// WithSigmaL tells the advisor the estimated HDFS predicate selectivity
// (the database cannot derive it without a cardinality hint).
func WithSigmaL(s float64) Option {
	return func(o *queryOpts) { o.sigmaL = s }
}

// KeepCounters accumulates metrics across queries instead of resetting.
func KeepCounters() Option {
	return func(o *queryOpts) { o.keep = true }
}

// Result is a completed query with its measurements.
type Result struct {
	// Rows hold the final grouped aggregates, returned at the DB side.
	Rows   []types.Row
	Schema types.Schema
	// Algorithm that ran, with the advisor's reasoning when it chose.
	Algorithm core.Algorithm
	Advice    string
	// DBJoinStrategy is the database's final-join choice (DB-side joins).
	DBJoinStrategy string
	// EstimatedTime is the calibrated paper-scale execution estimate.
	EstimatedTime costmodel.Breakdown
	// ShuffleBalance is the max/mean ratio of per-worker received shuffle
	// tuples (1.0 = perfectly balanced; 0 when the algorithm did not
	// shuffle). The skew-resilient shuffle exists to pull this toward 1.
	ShuffleBalance float64
	// Switched reports the adaptive layer (Config.AdaptiveSwitch) changed
	// the plan mid-query; SwitchedTo names the strategy it switched to
	// ("broadcast" or "hybrid-shuffle") and SwitchReason carries the
	// observed-vs-recosted justification. SwitchReason is also set on
	// keep decisions, so a non-switching adaptive run explains itself.
	Switched     bool
	SwitchedTo   string
	SwitchReason string
	// Edges reports the per-edge physical choices of an N-way star query
	// (nil for two-table queries). Algorithm is then the zero value —
	// multi-join plans choose per edge, not per query.
	Edges []core.EdgeSummary
	// Counters snapshots the run's measured metrics.
	Counters map[string]int64
}

// Query parses and executes a two-table hybrid join query.
func (w *Warehouse) Query(sql string, opts ...Option) (*Result, error) {
	return w.QueryCtx(context.Background(), sql, opts...)
}

// QueryCtx is Query under a caller-supplied context: canceling ctx aborts
// the query across both clusters, and the returned error wraps the
// cancellation cause (errors.Is matches context.Canceled or
// context.DeadlineExceeded).
func (w *Warehouse) QueryCtx(ctx context.Context, sql string, opts ...Option) (*Result, error) {
	if w.starFact != "" {
		return w.starQueryCtx(ctx, sql, opts...)
	}
	jq, err := w.Plan(sql)
	if err != nil {
		return nil, err
	}
	return w.RunPlanCtx(ctx, jq, opts...)
}

// Plan parses a query into its executable decomposition without running it.
func (w *Warehouse) Plan(sql string) (*plan.JoinQuery, error) {
	if w.dbTable == "" {
		return nil, fmt.Errorf("hybridwh: no data loaded")
	}
	q, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	tbl, err := w.db.Table(w.dbTable)
	if err != nil {
		return nil, err
	}
	cat, err := w.cat.Lookup(w.hdfsName)
	if err != nil {
		return nil, err
	}
	return sqlparse.PlanQuery(q,
		sqlparse.TableMeta{Name: w.dbTable, Schema: tbl.Schema},
		sqlparse.TableMeta{Name: w.hdfsName, Schema: cat.Schema},
		w.reg)
}

// RunPlan executes a planned query.
func (w *Warehouse) RunPlan(jq *plan.JoinQuery, opts ...Option) (*Result, error) {
	return w.RunPlanCtx(context.Background(), jq, opts...)
}

// RunPlanCtx executes a planned query under ctx; Config.QueryTimeout, when
// set, is layered on as a deadline. With the scheduler enabled
// (Config.MemBudgetBytes) the query first waits for admission under the
// global memory budget; the deadline covers that wait too.
func (w *Warehouse) RunPlanCtx(ctx context.Context, jq *plan.JoinQuery, opts ...Option) (*Result, error) {
	o, alg, advice := w.resolve(jq, opts)
	if w.cfg.QueryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, w.cfg.QueryTimeout)
		defer cancel()
	}
	if w.schd != nil {
		// Concurrent serving: counters are shared by the queries in flight,
		// so they are never reset here and Result.Counters reflects
		// warehouse-wide activity, not this query alone.
		v, err := w.schd.Run(ctx, w.schedRequest(jq, o, alg, advice))
		if err != nil {
			return nil, err
		}
		return v.(*Result), nil
	}
	if !o.keep {
		w.rec.Reset()
		w.bus.Counters().Reset()
		w.dfs.ResetReadCounters()
	}
	res, err := w.eng.RunCtx(ctx, jq, alg)
	if err != nil {
		return nil, err
	}
	return w.buildResult(res, alg, advice)
}

// resolve applies query options and runs the advisor when no algorithm is
// forced.
func (w *Warehouse) resolve(jq *plan.JoinQuery, opts []Option) (queryOpts, core.Algorithm, string) {
	var o queryOpts
	for _, opt := range opts {
		opt(&o)
	}
	if o.cardHint > 0 {
		jq.HDFSCardHint = o.cardHint
	}
	alg, advice := o.alg, ""
	if !o.forced {
		a := w.advise(jq, o)
		alg, advice = a.Algorithm, a.Reason
	}
	return o, alg, advice
}

// buildResult wraps an engine result with the cost-model estimate and the
// run's measurements.
func (w *Warehouse) buildResult(res *core.Result, alg core.Algorithm, advice string) (*Result, error) {
	est, err := w.model.Estimate(alg.String(), w.rec, w.bus.Counters(), costmodel.Params{
		Scale:       w.cfg.Scale,
		Format:      w.cfg.Format,
		JENWorkers:  w.cfg.JENWorkers,
		HotKeyShare: float64(w.rec.Get(metrics.SkewHotPermille)) / 1000,
		SkewHandled: w.cfg.SkewThreshold > 0,
	})
	if err != nil {
		return nil, err
	}
	return &Result{
		Rows:           res.Rows,
		Schema:         res.Schema,
		Algorithm:      alg,
		Advice:         advice,
		DBJoinStrategy: res.DBJoinStrategy.String(),
		EstimatedTime:  est,
		ShuffleBalance: w.rec.BalanceRatio(metrics.JENRecvTuples),
		Switched:       res.Switched,
		SwitchedTo:     res.SwitchedTo,
		SwitchReason:   res.SwitchReason,
		Counters:       res.Metrics,
	}, nil
}

// schedRequest packages a planned query for the admission scheduler: the
// cost model's statistics classify its lane and size its memory ask, and
// the run closure threads the granted budget into the engine.
func (w *Warehouse) schedRequest(jq *plan.JoinQuery, o queryOpts, alg core.Algorithm, advice string) sched.Request {
	stats := w.laneStats(jq, o)
	return sched.Request{
		Label:          fmt.Sprintf("%s ⋈ %s [%s]", jq.DBTable, jq.HDFSTable, alg),
		Lane:           costmodel.ClassifyLane(stats),
		FootprintBytes: costmodel.EstimateFootprintBytes(stats),
		Run: func(ctx context.Context, bud *mem.Budget) (any, error) {
			res, err := w.eng.RunCtxOpts(ctx, jq, alg, core.RunOpts{Budget: bud})
			if err != nil {
				return nil, err
			}
			return w.buildResult(res, alg, advice)
		},
	}
}

// laneStats gathers the statistics lane classification and footprint
// estimation need, from the same sources as the advisor but without its
// sampling (admission must be cheap).
func (w *Warehouse) laneStats(jq *plan.JoinQuery, o queryOpts) costmodel.LaneStats {
	st := costmodel.LaneStats{
		SigmaT:   1,
		SigmaL:   o.sigmaL,
		RowBytes: int64(16 * (len(jq.DBProj) + len(jq.HDFSWire))),
	}
	if tbl, err := w.db.Table(jq.DBTable); err == nil {
		st.TRows = tbl.Rows()
		need := append([]int(nil), jq.DBProj...)
		st.SigmaT = w.db.PlanAccess(tbl, jq.DBPred, need).EstSelectivity
	}
	if cat, err := w.cat.Lookup(jq.HDFSTable); err == nil {
		st.LRows = cat.Rows
		if st.SigmaL == 0 && jq.HDFSCardHint > 0 && cat.Rows > 0 {
			st.SigmaL = float64(jq.HDFSCardHint) / float64(cat.Rows)
		}
	}
	if st.SigmaL == 0 {
		st.SigmaL = 0.2 // the paper's common case, absent any hint
	}
	return st
}

// Submit enqueues a query for concurrent execution and returns its handle
// without waiting. Requires Config.MemBudgetBytes; Config.QueryTimeout is
// not applied — the caller's ctx governs the query's lifetime.
func (w *Warehouse) Submit(ctx context.Context, sql string, opts ...Option) (*QueryHandle, error) {
	if w.schd == nil {
		return nil, fmt.Errorf("hybridwh: concurrent serving disabled (set Config.MemBudgetBytes)")
	}
	jq, err := w.Plan(sql)
	if err != nil {
		return nil, err
	}
	o, alg, advice := w.resolve(jq, opts)
	p, err := w.schd.Submit(ctx, w.schedRequest(jq, o, alg, advice))
	if err != nil {
		return nil, err
	}
	return &QueryHandle{p: p}, nil
}

// QueryHandle is a query submitted with Submit.
type QueryHandle struct{ p *sched.Proc }

// ID is the query's process id (Processes/Kill).
func (h *QueryHandle) ID() int64 { return h.p.ID() }

// Done returns a channel closed when the query reaches a terminal state.
func (h *QueryHandle) Done() <-chan struct{} { return h.p.Done() }

// Wait blocks until the query finishes. A killed query's error matches
// sched.ErrKilled with errors.Is.
func (h *QueryHandle) Wait() (*Result, error) {
	v, err := h.p.Wait()
	if err != nil {
		return nil, err
	}
	return v.(*Result), nil
}

// Processes snapshots the scheduler's process list (nil without a
// scheduler): per-query id, label, lane, state, grant and age.
func (w *Warehouse) Processes() []sched.ProcInfo {
	if w.schd == nil {
		return nil
	}
	return w.schd.Processes()
}

// Kill aborts a queued or running query by process id; the abort unwinds
// across both clusters and the query's Wait returns sched.ErrKilled.
func (w *Warehouse) Kill(id int64) error {
	if w.schd == nil {
		return fmt.Errorf("hybridwh: concurrent serving disabled (set Config.MemBudgetBytes)")
	}
	return w.schd.Kill(id)
}

// Scheduler exposes the admission scheduler (nil when disabled).
func (w *Warehouse) Scheduler() *sched.Scheduler { return w.schd }

// advise runs the Section 5.5 decision logic on available statistics.
func (w *Warehouse) advise(jq *plan.JoinQuery, o queryOpts) core.Advice {
	stats := core.AdviceStats{
		SigmaT:      1,
		SigmaL:      o.sigmaL,
		JENWorkers:  w.cfg.JENWorkers,
		SkewHandled: w.cfg.SkewThreshold > 0,
	}
	if !stats.SkewHandled {
		// The hybrid shuffle would neutralize skew, so only sample for it
		// when it is off and the hot-key share can sway the decision.
		if est, err := w.EstimateHotKeyShare(jq, 0); err == nil {
			stats.HotKeyShare = est
		}
	}
	if tbl, err := w.db.Table(jq.DBTable); err == nil {
		stats.TRows = tbl.Rows()
		need := append([]int(nil), jq.DBProj...)
		stats.SigmaT = w.db.PlanAccess(tbl, jq.DBPred, need).EstSelectivity
	}
	if cat, err := w.cat.Lookup(jq.HDFSTable); err == nil {
		stats.LRows = cat.Rows
		if stats.SigmaL == 0 {
			if jq.HDFSCardHint > 0 && cat.Rows > 0 {
				stats.SigmaL = float64(jq.HDFSCardHint) / float64(cat.Rows)
			} else if est, err := w.EstimateSigmaL(jq, 0); err == nil {
				// Without a hint, sample L to estimate the predicate
				// selectivity (the paper instead always passes a hint).
				stats.SigmaL = est
			} else {
				// Sampling unavailable: assume the paper's common case.
				stats.SigmaL = 0.2
			}
		}
	}
	return core.Advise(stats, w.cfg.Scale)
}

// Explain renders the plan, the algorithm Query would run with the same
// options (the advisor's choice, or the forced one) and the optimizer's
// access-path decision without executing.
func (w *Warehouse) Explain(sql string, opts ...Option) (string, error) {
	if w.starFact != "" {
		return w.ExplainStar(sql, false)
	}
	jq, err := w.Plan(sql)
	if err != nil {
		return "", err
	}
	_, alg, advice := w.resolve(jq, opts)
	if advice == "" {
		advice = "forced by WithAlgorithm"
	}
	tbl, err := w.db.Table(jq.DBTable)
	if err != nil {
		return "", err
	}
	ap := w.db.PlanAccess(tbl, jq.DBPred, append([]int(nil), jq.DBProj...))
	out := fmt.Sprintf(
		"hybrid join: %s (database) ⋈ %s (HDFS, %s format)\n"+
			"  db predicate:    %v  [access: %s, est. σ_T=%.4f]\n"+
			"  hdfs predicate:  %v\n"+
			"  post-join:       %v\n"+
			"  shipped columns: db=%v hdfs=%v\n"+
			"  algorithm:       %s — %s\n",
		jq.DBTable, jq.HDFSTable, w.cfg.Format,
		exprString(jq.DBPred), ap.Path, ap.EstSelectivity,
		exprString(jq.HDFSPred), exprString(jq.PostJoin),
		jq.DBWireSchema, jq.HDFSWireSchema,
		alg, advice)
	return out, nil
}

func exprString(e expr.Expr) string {
	if e == nil {
		return "(none)"
	}
	return e.String()
}

// Engine exposes the core engine (experiments and tools).
func (w *Warehouse) Engine() *core.Engine { return w.eng }

// Recorder exposes the shared metrics recorder.
func (w *Warehouse) Recorder() *metrics.Recorder { return w.rec }

// Model exposes the cost model.
func (w *Warehouse) Model() *costmodel.Model { return w.model }

// Config returns the effective configuration.
func (w *Warehouse) Config() Config { return w.cfg }

// HDFS exposes the simulated HDFS cluster (failure injection, stats).
func (w *Warehouse) HDFS() *hdfs.Cluster { return w.dfs }

// Catalog exposes the HDFS table catalog.
func (w *Warehouse) Catalog() *catalog.Catalog { return w.cat }

// DB exposes the parallel database.
func (w *Warehouse) DB() *edw.DB { return w.db }
