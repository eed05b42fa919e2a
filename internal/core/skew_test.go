package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"hybridwh/internal/catalog"
	"hybridwh/internal/cluster"
	"hybridwh/internal/edw"
	"hybridwh/internal/format"
	"hybridwh/internal/hdfs"
	"hybridwh/internal/jen"
	"hybridwh/internal/metrics"
	"hybridwh/internal/netsim"
	"hybridwh/internal/types"
)

// buildSkewFixture is buildFixture with a heavily skewed L key
// distribution — half of L lands on join key 7, the rest stays uniform —
// and a caller-controlled engine config, so the same data can run with the
// skew-resilient shuffle on and off. Key 7 survives the fixture's
// predicates on both sides, so the hot key dominates the surviving shuffle.
func buildSkewFixture(t testing.TB, bus netsim.Bus, dbWorkers, jenWorkers, tN, lN int, cfg Config) *fixture {
	t.Helper()
	return buildSkewFixtureKeys(t, bus, dbWorkers, jenWorkers, tN, lN, cfg, func(rng *rand.Rand) int {
		if rng.Intn(2) == 0 {
			return rng.Intn(300)
		}
		return 7
	})
}

// buildSkewFixtureKeys is buildSkewFixture with a caller-chosen L join-key
// distribution (the benchmarks draw Zipf keys instead of the planted 50%
// heavy hitter).
func buildSkewFixtureKeys(t testing.TB, bus netsim.Bus, dbWorkers, jenWorkers, tN, lN int, cfg Config, nextKey func(*rand.Rand) int) *fixture {
	t.Helper()
	rec := metrics.New()
	rng := rand.New(rand.NewSource(77))

	db, err := edw.New(dbWorkers, rec)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("T", tSchema(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var tRows []types.Row
	for i := 0; i < tN; i++ {
		jk := rng.Intn(200)
		tRows = append(tRows, types.Row{
			types.Int64(int64(i)),
			types.Int32(int32(jk)),
			types.Int32(int32(jk*5 + rng.Intn(5))),
			types.Int32(int32(rng.Intn(1000))),
			types.Date(int32(16000 + rng.Intn(30))),
		})
	}
	if err := tbl.Load(tRows); err != nil {
		t.Fatal(err)
	}
	tbl.BuildStats(64)
	if err := tbl.CreateIndex("cor_ind_key", []int{2, 3, 1}); err != nil {
		t.Fatal(err)
	}

	dfs := hdfs.New(hdfs.Config{DataNodes: jenWorkers, DisksPerNode: 2, BlockSize: 8192, Replication: 2, Seed: 5})
	cat := catalog.New()
	var lRows []types.Row
	gen := func(emit func(types.Row) error) error {
		for i := 0; i < lN; i++ {
			jk := nextKey(rng)
			row := types.Row{
				types.Int32(int32(jk)),
				types.Int32(int32(((jk+60)%300)*3 + rng.Intn(3))),
				types.Int32(int32(rng.Intn(1000))),
				types.Date(int32(16000 + rng.Intn(30))),
				types.String(fmt.Sprintf("grp-%05d/page", rng.Intn(12))),
			}
			lRows = append(lRows, row)
			if err := emit(row); err != nil {
				return err
			}
		}
		return nil
	}
	if err := jen.CreateHDFSTable(dfs, cat, "L", "/hw/L", format.HWCName, lSchema(), 3, gen); err != nil {
		t.Fatal(err)
	}
	jc, err := jen.New(jen.Config{Workers: jenWorkers, Locality: true, BatchRows: 64}, dfs, cat, rec)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(db, jc, bus, rec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{eng: eng, dfs: dfs, tRows: tRows, lRows: lRows, tSch: tSchema(), lSch: lSchema()}
}

func skewTestConfig(threshold float64) Config {
	return Config{
		BloomBits: 1 << 14, BloomHashes: 2, BatchRows: 64, WorkerThreads: 1,
		SkewThreshold: threshold,
	}
}

// TestSkewedJoinMatchesPlainPartitioner is the result-identity guarantee:
// on identically-seeded skewed data, every algorithm family returns exactly
// the reference answer with the skew-resilient shuffle on, off, at a
// threshold no key reaches (empty agreed hot set), and on under the
// cost-based adaptive policy (the served-skewed engine configuration) — on
// both transports.
func TestSkewedJoinMatchesPlainPartitioner(t *testing.T) {
	transports := []struct {
		name   string
		newBus func() netsim.Bus
	}{
		{"chan", func() netsim.Bus { return netsim.NewChanBus(256) }},
		{"tcp", func() netsim.Bus { return netsim.NewTCPBus(256) }},
	}
	algs := []Algorithm{DBSideBloom, Broadcast, Repartition, RepartitionBloom, Zigzag}
	adaptive := skewTestConfig(0.05)
	adaptive.AdaptiveSwitch = true
	configs := []struct {
		name string
		cfg  Config
	}{
		{"threshold=0", skewTestConfig(0)},
		{"threshold=0.05", skewTestConfig(0.05)},
		{"threshold=0.999", skewTestConfig(0.999)},
		{"threshold=0.05/adaptive", adaptive},
	}
	for _, tr := range transports {
		for _, c := range configs {
			t.Run(tr.name+"/"+c.name, func(t *testing.T) {
				f := buildSkewFixture(t, tr.newBus(), 2, 3, 600, 3000, c.cfg)
				defer f.eng.Close()
				want := reference(t, f, 300, 400)
				if len(want) == 0 {
					t.Fatal("reference result empty; fixture too sparse")
				}
				q := exampleQuery(t, f, 300, 400)
				for _, alg := range algs {
					f.eng.Recorder().Reset()
					res, err := f.eng.Run(q, alg)
					if err != nil {
						t.Fatalf("%v: %v", alg, err)
					}
					checkResult(t, res, want, alg)
				}
			})
		}
	}
}

// TestSkewShuffleBalance is the load-balance guarantee: with half of L' on
// one key, the plain agreed-hash partitioner overloads that key's home
// worker past 3× the mean, while the hybrid partitioner holds every worker
// within 1.5× — with identical per-destination totals for cold keys and an
// identical query result.
func TestSkewShuffleBalance(t *testing.T) {
	const dbW, jenW, tN, lN = 3, 6, 1500, 9000
	run := func(threshold float64) (*Result, *metrics.Recorder, map[int64][2]int64) {
		f := buildSkewFixture(t, netsim.NewChanBus(256), dbW, jenW, tN, lN, skewTestConfig(threshold))
		defer f.eng.Close()
		want := reference(t, f, 300, 400)
		q := exampleQuery(t, f, 300, 400)
		res, err := f.eng.Run(q, RepartitionBloom)
		if err != nil {
			t.Fatal(err)
		}
		return res, f.eng.Recorder(), want
	}

	plainRes, plainRec, want := run(0)
	skewRes, skewRec, _ := run(0.05)

	plainRatio := plainRec.BalanceRatio(metrics.JENRecvTuples)
	skewRatio := skewRec.BalanceRatio(metrics.JENRecvTuples)
	if plainRatio <= 3 {
		t.Errorf("plain partitioner balance ratio %.2f; fixture not skewed enough (want > 3)", plainRatio)
	}
	if skewRatio > 1.5 {
		t.Errorf("skew-resilient shuffle balance ratio %.2f, want ≤ 1.5", skewRatio)
	}
	if plainRec.Get(metrics.JENRecvTuples) != skewRec.Get(metrics.JENRecvTuples) {
		t.Errorf("total shuffled tuples changed: %d plain vs %d skew — routing must only move rows, not drop them",
			plainRec.Get(metrics.JENRecvTuples), skewRec.Get(metrics.JENRecvTuples))
	}
	if skewRec.Get(metrics.SkewHotKeys) == 0 {
		t.Error("no hot keys agreed despite the planted heavy hitter")
	}
	if hot := skewRec.Get(metrics.JENShuffleHotTuples); hot < int64(lN)/4 {
		t.Errorf("only %d hot tuples scattered; the planted key holds ~half of L", hot)
	}
	// Threshold-only policy: a hot key engages the hybrid partitioner even
	// where the cost-based policy's margin would keep the plan.
	if skewRes.SwitchedTo != "hybrid-shuffle" || !strings.Contains(skewRes.SwitchReason, "SkewThreshold") {
		t.Errorf("threshold 0.05: SwitchedTo=%q reason=%q, want hybrid-shuffle naming SkewThreshold",
			skewRes.SwitchedTo, skewRes.SwitchReason)
	}
	checkResult(t, plainRes, want, RepartitionBloom)
	checkResult(t, skewRes, want, RepartitionBloom)

	// An unreachable threshold produces an empty hot set: the deferred
	// shuffle must reproduce the plain partitioner's receive vector exactly.
	inertRes, inertRec, _ := run(0.999)
	if inertRes.Switched || !strings.HasSuffix(inertRes.SwitchReason, "→ keep") {
		t.Errorf("threshold 0.999: Switched=%v reason=%q, want a keep decision", inertRes.Switched, inertRes.SwitchReason)
	}
	if !reflect.DeepEqual(inertRec.Vector(metrics.JENRecvTuples), plainRec.Vector(metrics.JENRecvTuples)) {
		t.Errorf("empty hot set changed the shuffle: recv %v vs plain %v",
			inertRec.Vector(metrics.JENRecvTuples), plainRec.Vector(metrics.JENRecvTuples))
	}
	if inertRec.Get(metrics.SkewHotKeys) != 0 {
		t.Errorf("hot set not empty at threshold 0.999: %d keys", inertRec.Get(metrics.SkewHotKeys))
	}
}

// TestSkewedJoinDeterministicCounters: at WorkerThreads=1 the whole skew
// machinery — sketch, hot set, round-robin placement — is deterministic, so
// two identically-seeded engines produce bit-identical counter snapshots.
func TestSkewedJoinDeterministicCounters(t *testing.T) {
	sweep := func() []map[string]int64 {
		f := buildSkewFixture(t, netsim.NewChanBus(256), 2, 3, 600, 3000, skewTestConfig(0.05))
		defer f.eng.Close()
		q := exampleQuery(t, f, 300, 400)
		var out []map[string]int64
		for _, alg := range []Algorithm{Repartition, RepartitionBloom, Zigzag} {
			f.eng.Recorder().Reset()
			res, err := f.eng.Run(q, alg)
			if err != nil {
				t.Fatalf("%v: %v", alg, err)
			}
			out = append(out, res.Metrics)
		}
		return out
	}
	first, second := sweep(), sweep()
	for i := range first {
		if !reflect.DeepEqual(first[i], second[i]) {
			t.Errorf("run %d: skewed-join counter snapshots differ between identically-seeded sweeps", i)
			for k, v := range second[i] {
				if first[i][k] != v {
					t.Errorf("run %d counter %s: %d vs %d", i, k, first[i][k], v)
				}
			}
		}
	}
}

// TestInjectedFailuresAbortSkewedShuffle extends the fault matrix across
// the skew path's protocol phases (observation fan-in, decision broadcast,
// post-decision hybrid shuffle): a worker dying mid skew-shuffle must still
// produce one classified error, within the deadline, with no leaked
// goroutines.
func TestInjectedFailuresAbortSkewedShuffle(t *testing.T) {
	transports := []struct {
		name   string
		newBus func() netsim.Bus
	}{
		{"chan", func() netsim.Bus { return netsim.NewChanBus(64) }},
		{"tcp", func() netsim.Bus { return netsim.NewTCPBus(64) }},
	}
	// The kill counts put the death in different phases. Nothing row-bearing
	// moves before the decision, so the first messages touching a worker are
	// the handshake: jen/1's snapshot is its first message (repartition) or
	// its second, after BF_DB (zigzag), and the decision follows, so a kill
	// after 1 lands in the observation fan-in or the decision broadcast.
	// By message 12 jen/1 is mid hybrid shuffle, and db/1's 4th message is
	// a T' frame of the post-decision shipping.
	kills := []struct {
		name  string
		kill  string
		after int64
	}{
		{"jen-early", cluster.JENName(1), 1},
		{"jen-mid-shuffle", cluster.JENName(1), 12},
		{"db-worker", cluster.DBName(1), 4},
	}
	for _, tr := range transports {
		for _, alg := range []Algorithm{Repartition, Zigzag} {
			for _, k := range kills {
				t.Run(fmt.Sprintf("%s/%s/%s", tr.name, alg, k.name), func(t *testing.T) {
					baseline := runtime.NumGoroutine()
					ctx, cancel := context.WithTimeout(context.Background(), abortTestDeadline)
					defer cancel()
					f := buildSkewFixture(t, tr.newBus(), 2, 3, 600, 3000, skewTestConfig(0.05))
					f.eng.Bus().(netsim.FaultInjector).KillEndpointAfter(k.kill, k.after)
					q := exampleQuery(t, f, 300, 400)
					start := time.Now()
					_, err := f.eng.RunCtx(ctx, q, alg)
					elapsed := time.Since(start)
					if err == nil {
						t.Fatal("query succeeded despite injected failure")
					}
					if !errors.Is(err, netsim.ErrEndpointDown) {
						t.Fatalf("err = %v, want errors.Is netsim.ErrEndpointDown", err)
					}
					if elapsed >= abortTestDeadline {
						t.Fatalf("abort took %v; protocol stalled until the deadline", elapsed)
					}
					if err := f.eng.Close(); err != nil {
						t.Logf("engine close after abort: %v", err)
					}
					checkNoGoroutineLeak(t, baseline)
				})
			}
		}
	}
}
