package core

import (
	"reflect"
	"testing"

	"hybridwh/internal/cluster"
	"hybridwh/internal/format"
	"hybridwh/internal/netsim"
)

// Tests for intra-worker parallelism (Config.WorkerThreads): the morsel
// scan/filter/shuffle stage and the partition-parallel probe must produce
// the same results and the same deterministic counters as the sequential
// pipeline, at any thread count, on every algorithm.

// threadSplitKeys are the per-thread diagnostic counters whose split across
// slots (and therefore whose .max, and for join.probe.split even presence)
// depends on goroutine scheduling. Everything else in a snapshot is part of
// the deterministic contract.
var threadSplitKeys = []string{
	"jen.morsel.tuples.max",
	"join.probe.split",
	"join.probe.split.max",
}

func dropThreadSplit(snap map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(snap))
	for k, v := range snap {
		out[k] = v
	}
	for _, k := range threadSplitKeys {
		delete(out, k)
	}
	return out
}

// parallelSweep runs every algorithm on a fresh identically-seeded fixture
// over the given bus with the given thread count and returns per-algorithm
// result rows, cleaned counter snapshots and bus counters.
func parallelSweep(t *testing.T, bus netsim.Bus, threads int) (rows map[string][][]string, snaps map[string]map[string]int64, busCounters map[string]int64) {
	t.Helper()
	f := buildFixture(t, bus, 3, 5, 2000, 6000, format.HWCName)
	defer f.eng.Close()
	f.eng.cfg.WorkerThreads = threads
	q := exampleQuery(t, f, 300, 400)
	rows = map[string][][]string{}
	snaps = map[string]map[string]int64{}
	for _, alg := range Algorithms() {
		f.eng.Recorder().Reset()
		res, err := f.eng.Run(q, alg)
		if err != nil {
			t.Fatalf("threads=%d %v: %v", threads, alg, err)
		}
		var rendered [][]string
		for _, r := range res.Rows {
			rendered = append(rendered, []string{r.String()})
		}
		rows[alg.String()] = rendered
		snaps[alg.String()] = dropThreadSplit(res.Metrics)
	}
	busCounters = map[string]int64{}
	for _, cl := range []cluster.LinkClass{cluster.IntraDB, cluster.IntraHDFS, cluster.Cross} {
		busCounters["bytes."+cl.String()] = f.eng.Bus().Counters().Bytes(cl)
		busCounters["msgs."+cl.String()] = f.eng.Bus().Counters().Messages(cl)
	}
	return rows, snaps, busCounters
}

// TestWorkerThreadsDeterministic is the determinism contract: a
// multi-threaded sweep must reproduce the single-threaded sweep's results
// and every counter outside the per-thread split — including bus message and
// byte totals — and a second multi-threaded sweep must reproduce the first
// (scheduling independence). The counters are also transport-independent: a
// single-threaded sweep over TCP must reproduce the in-process one.
func TestWorkerThreadsDeterministic(t *testing.T) {
	seqRows, seqSnaps, seqBus := parallelSweep(t, netsim.NewChanBus(256), 1)
	parRows, parSnaps, parBus := parallelSweep(t, netsim.NewChanBus(256), 4)
	if !reflect.DeepEqual(seqRows, parRows) {
		t.Fatal("result rows differ between WorkerThreads=1 and WorkerThreads=4")
	}
	for alg, ss := range seqSnaps {
		ps := parSnaps[alg]
		for k, v := range ss {
			if ps[k] != v {
				t.Errorf("%s %s: threads=1 %d, threads=4 %d", alg, k, v, ps[k])
			}
		}
		for k := range ps {
			if _, ok := ss[k]; !ok {
				t.Errorf("%s %s: present only with threads=4", alg, k)
			}
		}
	}
	if !reflect.DeepEqual(seqBus, parBus) {
		t.Fatalf("bus counters differ: threads=1 %v, threads=4 %v", seqBus, parBus)
	}

	againRows, againSnaps, againBus := parallelSweep(t, netsim.NewChanBus(256), 4)
	if !reflect.DeepEqual(parRows, againRows) || !reflect.DeepEqual(parSnaps, againSnaps) || !reflect.DeepEqual(parBus, againBus) {
		t.Fatal("two WorkerThreads=4 sweeps disagree: parallel execution is not deterministic")
	}

	tcpRows, tcpSnaps, tcpBus := parallelSweep(t, netsim.NewTCPBus(256), 1)
	if !reflect.DeepEqual(seqRows, tcpRows) {
		t.Fatal("result rows differ between ChanBus and TCPBus")
	}
	for alg, ss := range seqSnaps {
		ts := tcpSnaps[alg]
		for k, v := range ss {
			if ts[k] != v {
				t.Errorf("%s %s: ChanBus %d, TCPBus %d", alg, k, v, ts[k])
			}
		}
		for k := range ts {
			if _, ok := ss[k]; !ok {
				t.Errorf("%s %s: present only over TCPBus", alg, k)
			}
		}
	}
	if !reflect.DeepEqual(seqBus, tcpBus) {
		t.Fatalf("bus counters differ: ChanBus %v, TCPBus %v", seqBus, tcpBus)
	}
}

// TestWireCompressionRoundTrip runs the shuffle-heavy algorithms over the
// TCP transport with frame compression on: results must be exact, and the
// repetitive fixture rows must actually shrink on the wire.
func TestWireCompressionRoundTrip(t *testing.T) {
	run := func(compressed bool, threads int) (res map[string][][]string, sentBytes int64) {
		f := buildFixture(t, netsim.NewTCPBus(256), 2, 3, 800, 2000, format.HWCName)
		defer f.eng.Close()
		f.eng.cfg.WireCompression = compressed
		f.eng.cfg.WorkerThreads = threads
		want := reference(t, f, 300, 400)
		q := exampleQuery(t, f, 300, 400)
		res = map[string][][]string{}
		for _, alg := range []Algorithm{Repartition, Zigzag, Broadcast, DBSide} {
			f.eng.Recorder().Reset()
			r, err := f.eng.Run(q, alg)
			if err != nil {
				t.Fatalf("compressed=%v %v: %v", compressed, alg, err)
			}
			checkResult(t, r, want, alg)
			var rendered [][]string
			for _, row := range r.Rows {
				rendered = append(rendered, []string{row.String()})
			}
			res[alg.String()] = rendered
			if alg == Repartition {
				sentBytes = r.Metrics["db.sent.bytes"] + r.Metrics["jen.shuffle.bytes"]
			}
		}
		return res, sentBytes
	}
	plainRes, plainBytes := run(false, 1)
	compRes, compBytes := run(true, 1)
	if !reflect.DeepEqual(plainRes, compRes) {
		t.Fatal("results differ with wire compression on")
	}
	if compBytes >= plainBytes {
		t.Fatalf("compressed wire bytes %d >= uncompressed %d; frames are not being compressed", compBytes, plainBytes)
	}
	// Compression composes with morsel parallelism (byte counters are
	// order-dependent there, so only results are asserted).
	parRes, _ := run(true, 4)
	if !reflect.DeepEqual(plainRes, parRes) {
		t.Fatal("results differ with wire compression + WorkerThreads=4")
	}
}
