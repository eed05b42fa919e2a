package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"

	"hybridwh/internal/batch"
	"hybridwh/internal/cluster"
	"hybridwh/internal/format"
	"hybridwh/internal/metrics"
	"hybridwh/internal/netsim"
	"hybridwh/internal/skew"
	"hybridwh/internal/types"
)

// recordBus records every Send and can be told to fail sends to one
// destination. It implements netsim.Bus for batcher-level tests that need
// no routing.
type recordBus struct {
	failDest string
	sent     []netsim.Envelope // From abused to carry the destination
}

func (b *recordBus) Register(name string) (<-chan netsim.Envelope, error) {
	return make(chan netsim.Envelope), nil
}

func (b *recordBus) Send(from, to string, m netsim.Msg) error {
	if to == b.failDest {
		return fmt.Errorf("recordBus: %s unreachable", to)
	}
	b.sent = append(b.sent, netsim.Envelope{From: to, Msg: m})
	return nil
}

func (b *recordBus) Counters() *netsim.Counters { return nil }
func (b *recordBus) Close() error               { return nil }

func testEngine(bus netsim.Bus, batchRows int) *Engine {
	return &Engine{bus: bus, rec: metrics.New(), cfg: Config{BatchRows: batchRows}}
}

func wideRow(i int) types.Row {
	return types.Row{types.Int32(int32(i)), types.String(fmt.Sprintf("v%d", i))}
}

// TestBatcherKeepsOtherBuffersOnSendError is the ISSUE's fix check: when a
// flush to one destination fails mid-send, the partial buffers of the other
// destinations must still be flushed (and EOS'd) by Close, not dropped.
func TestBatcherKeepsOtherBuffersOnSendError(t *testing.T) {
	bus := &recordBus{failDest: "bad"}
	e := testEngine(bus, 4)
	b := e.newBatcher(context.Background(), "src", "s", []string{"good", "bad"}, "", "", 0)

	// Two rows buffer for "good" (below the flush threshold of 4)...
	for i := 0; i < 2; i++ {
		if err := b.sendRows("good", []types.Row{wideRow(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// ...then a full batch for "bad" flushes and fails.
	var sendErr error
	for i := 0; i < 4 && sendErr == nil; i++ {
		sendErr = b.sendRows("bad", []types.Row{wideRow(100 + i)})
	}
	if sendErr == nil {
		t.Fatal("send to failing destination did not error")
	}
	if err := b.Close(); err == nil {
		t.Fatal("Close must surface the EOS failure to the bad destination")
	}

	var goodRows []types.Row
	eosSeen := false
	for _, env := range bus.sent {
		if env.From != "good" {
			t.Fatalf("message leaked to %s after its send failed", env.From)
		}
		switch env.Type {
		case netsim.MsgRows:
			rows, err := types.DecodeRows(env.Payload)
			if err != nil {
				t.Fatal(err)
			}
			goodRows = append(goodRows, rows...)
		case netsim.MsgEOS:
			eosSeen = true
		}
	}
	if len(goodRows) != 2 {
		t.Fatalf("good destination received %d rows, want its 2 buffered rows", len(goodRows))
	}
	for i, r := range goodRows {
		if !reflect.DeepEqual(r, wideRow(i)) {
			t.Fatalf("row %d = %v, want %v", i, r, wideRow(i))
		}
	}
	if !eosSeen {
		t.Fatal("good destination never received EOS")
	}
}

// TestBatchSendsMatchRowSends pins the wire-framing invariant: scatterBatch
// must produce the exact same message sequence (payload bytes, order,
// destinations) as queueing the same logical rows one at a time — message
// boundaries, and so the byte counters, depend only on each destination's
// row sequence.
func TestBatchSendsMatchRowSends(t *testing.T) {
	const size = 4
	rows := make([]types.Row, 11)
	for i := range rows {
		rows[i] = types.Row{types.Int32(int32(i % 3)), types.Int32(int32(i)), types.String(fmt.Sprintf("s%d", i))}
	}
	destOf := func(key int64) string { return fmt.Sprintf("d%d", key) }
	dests := []string{"d0", "d1", "d2"}

	rowBus := &recordBus{}
	rb := testEngine(rowBus, size).newBatcher(context.Background(), "src", "s", dests, "", "", 0)
	for _, r := range rows {
		if err := rb.sendRows(destOf(r[0].Int()), []types.Row{r}); err != nil {
			t.Fatal(err)
		}
	}
	if err := rb.Close(); err != nil {
		t.Fatal(err)
	}

	// The same rows as two batches, scattered by the same key.
	batchBus := &recordBus{}
	bb := testEngine(batchBus, size).newBatcher(context.Background(), "src", "s", dests, "", "", 0)
	for lo := 0; lo < len(rows); lo += 6 {
		hi := lo + 6
		if hi > len(rows) {
			hi = len(rows)
		}
		sb := batch.New(3, hi-lo)
		for _, r := range rows[lo:hi] {
			sb.AppendRow(r)
		}
		if err := bb.scatterBatch(sb, nil, 0, destOf); err != nil {
			t.Fatal(err)
		}
	}
	if err := bb.Close(); err != nil {
		t.Fatal(err)
	}

	if len(rowBus.sent) != len(batchBus.sent) {
		t.Fatalf("message count %d vs %d", len(batchBus.sent), len(rowBus.sent))
	}
	for i := range rowBus.sent {
		want, got := rowBus.sent[i], batchBus.sent[i]
		if want.From != got.From || want.Type != got.Type {
			t.Fatalf("message %d: (%s,%v) vs (%s,%v)", i, got.From, got.Type, want.From, want.Type)
		}
		if !bytes.Equal(want.Payload, got.Payload) {
			t.Fatalf("message %d to %s: payload differs (%d vs %d bytes)", i, want.From, len(got.Payload), len(want.Payload))
		}
	}
}

// TestSendBatchHonorsSelectionAndProjection: deselected rows must not ship,
// and proj reorders columns like Row.Project.
func TestSendBatchHonorsSelectionAndProjection(t *testing.T) {
	bus := &recordBus{}
	e := testEngine(bus, 100)
	b := e.newBatcher(context.Background(), "src", "s", []string{"d"}, "", "", 0)
	sb := batch.New(3, 8)
	for i := 0; i < 8; i++ {
		sb.AppendRow(types.Row{types.Int32(int32(i)), types.String(fmt.Sprintf("s%d", i)), types.Int64(int64(100 + i))})
	}
	sb.SetSel([]int32{1, 4, 6})
	if err := b.sendBatch("d", sb, []int{2, 0}); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	var got []types.Row
	for _, env := range bus.sent {
		if env.Type == netsim.MsgRows {
			rows, err := types.DecodeRows(env.Payload)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, rows...)
		}
	}
	want := []types.Row{
		{types.Int64(101), types.Int32(1)},
		{types.Int64(104), types.Int32(4)},
		{types.Int64(106), types.Int32(6)},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("shipped %v, want %v", got, want)
	}
}

// goldenCountersPath holds the counter and bus snapshots of the repartition
// family on TestBatchPipelineMatchesGoldenCounters's fixture. They were recorded from a per-row execution
// of the same queries, which the batch pipeline matched counter for counter.
const goldenCountersPath = "testdata/repartition_counters.golden.json"

// countersRun is one algorithm's deterministic footprint: the recorder
// snapshot without the per-thread split, and the bus bytes and messages per
// link class.
type countersRun struct {
	Metrics map[string]int64 `json:"metrics"`
	Bus     map[string]int64 `json:"bus"`
}

// TestBatchPipelineMatchesGoldenCounters runs Repartition, RepartitionBloom
// and Zigzag on a 3 DB x 5 JEN HWC fixture. Every result must equal the
// nested-loop reference, and every deterministic counter and every bus byte
// and message must equal the golden, so a change to the batch pipeline
// cannot silently move a Table 1 counter.
func TestBatchPipelineMatchesGoldenCounters(t *testing.T) {
	data, err := os.ReadFile(goldenCountersPath)
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]countersRun
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	f := buildFixture(t, netsim.NewChanBus(256), 3, 5, 2000, 6000, format.HWCName)
	defer f.eng.Close()
	want := reference(t, f, 300, 400)
	q := exampleQuery(t, f, 300, 400)
	algs := []Algorithm{Repartition, RepartitionBloom, Zigzag}
	if len(golden) != len(algs) {
		t.Fatalf("golden has %d algorithms, want %d", len(golden), len(algs))
	}
	for _, alg := range algs {
		g, ok := golden[alg.String()]
		if !ok {
			t.Fatalf("%v: missing from the golden", alg)
		}
		f.eng.Recorder().Reset()
		f.eng.Bus().Counters().Reset()
		res, err := f.eng.Run(q, alg)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		checkResult(t, res, want, alg)
		bus := map[string]int64{}
		for _, cl := range []cluster.LinkClass{cluster.IntraDB, cluster.IntraHDFS, cluster.Cross} {
			bus["bytes."+cl.String()] = f.eng.Bus().Counters().Bytes(cl)
			bus["msgs."+cl.String()] = f.eng.Bus().Counters().Messages(cl)
		}
		diffCounters(t, alg.String()+" metrics", g.Metrics, dropThreadSplit(res.Metrics))
		diffCounters(t, alg.String()+" bus", g.Bus, bus)
	}
}

func diffCounters(t *testing.T, what string, want, got map[string]int64) {
	t.Helper()
	for k, v := range want {
		if g, ok := got[k]; !ok || g != v {
			t.Errorf("%s %s = %d (present %v), golden %d", what, k, g, ok, v)
		}
	}
	for k, v := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s %s = %d, not in golden", what, k, v)
		}
	}
}

// TestBatcherFlushBoundaries: destination buffers start at initialBufRows
// rows and grow, but every send path must still ship ceil(rows/BatchRows)
// frames per destination, each full except the last, carrying that
// destination's rows in order. BatchRows sits above the initial capacity so
// every full frame crosses at least one buffer growth.
func TestBatcherFlushBoundaries(t *testing.T) {
	const size = 150
	if size <= initialBufRows {
		t.Fatalf("BatchRows %d must exceed initialBufRows %d", size, initialBufRows)
	}
	dests := []string{"d0", "d1", "d2"}
	destOf := func(key int64) string { return dests[key%int64(len(dests))] }
	row := func(key, seq int) types.Row {
		return types.Row{types.Int64(int64(key)), types.Int32(int32(seq)), types.String(fmt.Sprintf("s%d", seq))}
	}
	// asBatches splits rows into input batches of 7, so buffer boundaries
	// cannot line up with input boundaries by accident.
	asBatches := func(rows []types.Row) []*batch.Batch {
		var out []*batch.Batch
		for lo := 0; lo < len(rows); lo += 7 {
			hi := min(lo+7, len(rows))
			sb := batch.New(3, hi-lo)
			for _, r := range rows[lo:hi] {
				sb.AppendRow(r)
			}
			out = append(out, sb)
		}
		return out
	}
	// hotKey is the hot set: scatterRowsHybrid copies its rows to every
	// destination.
	const hotKey = 3 * 1000

	paths := []struct {
		name string
		// send queues perDest rows for every destination and returns, per
		// destination, the rows in the order they must arrive.
		send func(b *batcher, perDest int) (map[string][]types.Row, error)
	}{
		{"sendRows", func(b *batcher, perDest int) (map[string][]types.Row, error) {
			want := map[string][]types.Row{}
			for di, d := range dests {
				for i := 0; i < perDest; i++ {
					want[d] = append(want[d], row(di, i))
				}
				if err := b.sendRows(d, want[d]); err != nil {
					return nil, err
				}
			}
			return want, nil
		}},
		{"scatterBatch", func(b *batcher, perDest int) (map[string][]types.Row, error) {
			want := map[string][]types.Row{}
			var rows []types.Row
			for i := 0; i < perDest*len(dests); i++ {
				r := row(i, i)
				rows = append(rows, r)
				want[destOf(int64(i))] = append(want[destOf(int64(i))], r)
			}
			for _, sb := range asBatches(rows) {
				if err := b.scatterBatch(sb, nil, 0, destOf); err != nil {
					return nil, err
				}
			}
			return want, nil
		}},
		{"broadcastBatch", func(b *batcher, perDest int) (map[string][]types.Row, error) {
			want := map[string][]types.Row{}
			var rows []types.Row
			for i := 0; i < perDest; i++ {
				rows = append(rows, row(i, i))
			}
			for _, d := range dests {
				want[d] = rows
			}
			for _, sb := range asBatches(rows) {
				if err := b.broadcastBatch(sb, nil); err != nil {
					return nil, err
				}
			}
			return want, nil
		}},
		{"scatterRowsHybrid", func(b *batcher, perDest int) (map[string][]types.Row, error) {
			// A third of each destination's rows are hot copies, interleaved
			// with the cold rows routed to it.
			hot := perDest / 3
			cold := perDest - hot
			want := map[string][]types.Row{}
			var rows []types.Row
			for i := 0; i < max(hot, cold)*len(dests); i++ {
				if i < cold*len(dests) {
					r := row(i, i)
					rows = append(rows, r)
					want[destOf(int64(i))] = append(want[destOf(int64(i))], r)
				}
				if i < hot {
					r := row(hotKey, -i-1)
					rows = append(rows, r)
					for _, d := range dests {
						want[d] = append(want[d], r)
					}
				}
			}
			return want, b.scatterRowsHybrid(rows, 0, skew.NewHotSet([]int64{hotKey}), destOf)
		}},
	}
	for _, p := range paths {
		for _, perDest := range []int{1, size, size + 1} {
			t.Run(fmt.Sprintf("%s/rows=%d", p.name, perDest), func(t *testing.T) {
				bus := &recordBus{}
				b := testEngine(bus, size).newBatcher(context.Background(), "src", "s", dests, "", "", 0)
				want, err := p.send(b, perDest)
				if err != nil {
					t.Fatal(err)
				}
				if err := b.Close(); err != nil {
					t.Fatal(err)
				}
				frames := map[string][]int{}
				got := map[string][]types.Row{}
				for _, env := range bus.sent {
					if env.Type != netsim.MsgRows {
						continue
					}
					rows, err := types.DecodeRows(env.Payload)
					if err != nil {
						t.Fatal(err)
					}
					frames[env.From] = append(frames[env.From], len(rows))
					got[env.From] = append(got[env.From], rows...)
				}
				wantFrames := (perDest + size - 1) / size
				for _, d := range dests {
					if len(want[d]) != perDest {
						t.Fatalf("%s: test queued %d rows, want %d", d, len(want[d]), perDest)
					}
					fs := frames[d]
					if len(fs) != wantFrames {
						t.Fatalf("%s: %d frames %v, want %d", d, len(fs), fs, wantFrames)
					}
					for i, n := range fs[:len(fs)-1] {
						if n != size {
							t.Errorf("%s: frame %d holds %d rows, want %d", d, i, n, size)
						}
					}
					if !reflect.DeepEqual(got[d], want[d]) {
						t.Errorf("%s: rows or their order differ from what was queued", d)
					}
				}
			})
		}
	}
}
