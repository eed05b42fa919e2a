package core

import (
	"context"
	"fmt"
	"sync"

	"hybridwh/internal/batch"
	"hybridwh/internal/bloom"
	"hybridwh/internal/compress"
	"hybridwh/internal/metrics"
	"hybridwh/internal/netsim"
	"hybridwh/internal/skew"
	"hybridwh/internal/types"
)

// The wire protocol shared by every algorithm. Row streams are identified
// by a per-query stream name; each sender ends its stream to each receiver
// with one EOS message, so receivers know completion without any global
// coordinator. Per-(sender, receiver) bus ordering guarantees all of a
// sender's rows precede its EOS. A sender that fails mid-query terminates
// its streams with MsgError instead (batcher.CloseWith, Engine.sendAbort);
// receivers treat an incoming MsgError as a terminal classified error, and
// the per-query context unblocks any receive the abort never reached (see
// abort.go).

// batcher accumulates rows per destination in columnar batches and ships
// them as MsgRows messages, recording tuple and byte counters against the
// sending worker. The wire encoding (batch.EncodeBatch) is byte-identical
// to types.EncodeRows over the same rows, and a buffer flushes exactly when
// it reaches cfg.BatchRows rows, so message boundaries — and therefore the
// byte counters — depend only on each destination's row sequence, not on
// how the rows were grouped into input batches.
//
// A batcher is safe for concurrent use: morsel workers (Config.WorkerThreads
// > 1) feed one shared batcher per stream under its mutex. Sharing — rather
// than one batcher per thread — is what keeps the message counts
// deterministic: a destination's buffer still flushes exactly when it
// reaches cfg.BatchRows rows, so per-destination message and byte totals
// depend only on the row totals, not on which thread appended which row.
type batcher struct {
	e      *Engine
	ctx    context.Context
	from   string
	stream string
	size   int
	dests  []string

	mu   sync.Mutex
	bufs map[string]*batch.Batch // guarded by mu

	// Counter names (vector counters, indexed by slot); empty to skip.
	tupleCounter string
	byteCounter  string
	slot         int

	tuples int64 // guarded by mu
}

// newBatcher creates a batcher. dests is the full set of endpoints this
// sender may target; EOS goes to all of them on Close. The query context
// is checked at every flush, so a canceled query stops shipping batches
// instead of streaming its table to completion.
func (e *Engine) newBatcher(ctx context.Context, from, stream string, dests []string, tupleCounter, byteCounter string, slot int) *batcher {
	return &batcher{
		e: e, ctx: ctx, from: from, stream: stream, size: e.cfg.BatchRows,
		dests: dests, bufs: map[string]*batch.Batch{},
		tupleCounter: tupleCounter, byteCounter: byteCounter, slot: slot,
	}
}

// bufLocked returns dest's buffer, creating it with the stream's row width
// on first use (all rows of one stream share a layout). Callers hold mu.
func (b *batcher) bufLocked(dest string, ncols int) *batch.Batch {
	bb := b.bufs[dest]
	if bb == nil {
		bb = batch.New(ncols, b.size)
		b.bufs[dest] = bb
	}
	return bb
}

// sendLocked queues one row for dest, flushing a full batch. Callers hold mu.
func (b *batcher) sendLocked(dest string, row types.Row) error {
	bb := b.bufLocked(dest, len(row))
	bb.AppendRow(row)
	b.tuples++
	if bb.Full() {
		return b.flushLocked(dest)
	}
	return nil
}

// sendRows queues a materialized row slice for one destination.
func (b *batcher) sendRows(dest string, rows []types.Row) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, r := range rows {
		if err := b.sendLocked(dest, r); err != nil {
			return err
		}
	}
	return nil
}

// scatterRows routes each row by its key column through destOf.
func (b *batcher) scatterRows(rows []types.Row, keyIdx int, destOf func(key int64) string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, r := range rows {
		if err := b.sendLocked(destOf(r[keyIdx].Int()), r); err != nil {
			return err
		}
	}
	return nil
}

// scatterRowsHybrid routes cold rows by destOf and replicates hot rows to
// every destination — the small side of the hybrid skew treatment: a hot
// T' row must be present wherever its scattered L' partners landed.
// Tuples count once per copy, exactly as broadcast does, so the counters
// reflect what actually crossed the interconnect.
func (b *batcher) scatterRowsHybrid(rows []types.Row, keyIdx int, hot *skew.HotSet, destOf func(key int64) string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, r := range rows {
		k := r[keyIdx].Int()
		if hot.Contains(k) {
			for _, d := range b.dests {
				if err := b.sendLocked(d, r); err != nil {
					return err
				}
			}
			continue
		}
		if err := b.sendLocked(destOf(k), r); err != nil {
			return err
		}
	}
	return nil
}

// broadcastRows queues a materialized row slice for every destination.
func (b *batcher) broadcastRows(rows []types.Row) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, r := range rows {
		for _, d := range b.dests {
			if err := b.sendLocked(d, r); err != nil {
				return err
			}
		}
	}
	return nil
}

// sendBatchLocked queues every live row of src for dest. Callers hold mu.
func (b *batcher) sendBatchLocked(dest string, src *batch.Batch, proj []int) error {
	ncols := src.NumCols()
	if proj != nil {
		ncols = len(proj)
	}
	bb := b.bufLocked(dest, ncols)
	return src.Each(func(i int) error {
		bb.AppendFrom(src, i, proj)
		b.tuples++
		if bb.Full() {
			return b.flushLocked(dest)
		}
		return nil
	})
}

// sendBatch queues every live row of src for dest, projected through proj
// (src column indexes; nil copies positionally). src is on loan: its values
// are copied into the destination buffer.
func (b *batcher) sendBatch(dest string, src *batch.Batch, proj []int) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sendBatchLocked(dest, src, proj)
}

// scatterBatch routes every live row of src by its key column (an index
// into src's physical layout, read before projection) through destOf,
// projecting each row through proj into the destination buffer.
func (b *batcher) scatterBatch(src *batch.Batch, proj []int, keyIdx int, destOf func(key int64) string) error {
	ncols := src.NumCols()
	if proj != nil {
		ncols = len(proj)
	}
	keys := src.Col(keyIdx)
	b.mu.Lock()
	defer b.mu.Unlock()
	return src.Each(func(i int) error {
		dest := destOf(keys[i].Int())
		bb := b.bufLocked(dest, ncols)
		bb.AppendFrom(src, i, proj)
		b.tuples++
		if bb.Full() {
			return b.flushLocked(dest)
		}
		return nil
	})
}

// broadcastBatch queues every live row of src for every destination.
// Tuples are counted once per copy, exactly as per-row broadcast does.
func (b *batcher) broadcastBatch(src *batch.Batch, proj []int) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, d := range b.dests {
		if err := b.sendBatchLocked(d, src, proj); err != nil {
			return err
		}
	}
	return nil
}

// flushLocked ships dest's buffered rows as one framed message. Callers
// hold mu.
func (b *batcher) flushLocked(dest string) error {
	bb := b.bufs[dest]
	if bb == nil || bb.Size() == 0 {
		return nil
	}
	if b.ctx != nil {
		if err := b.ctx.Err(); err != nil {
			return fmt.Errorf("core: %s send %s: %w", b.from, b.stream, context.Cause(b.ctx))
		}
	}
	payload := batch.EncodeBatch(bb)
	bb.Reset()
	if b.e.cfg.WireCompression {
		// Frame compression (Config.WireCompression): the byte counters see
		// the compressed size — what actually crosses the interconnect.
		payload = compress.Encode(payload)
	}
	if b.byteCounter != "" {
		b.e.rec.AddAt(b.byteCounter, b.slot, int64(len(payload)))
	}
	return b.e.bus.Send(b.from, dest, netsim.Msg{Type: netsim.MsgRows, Stream: b.stream, Payload: payload})
}

// Close flushes every buffer and sends EOS to every destination. It must
// run even on error paths (usually via defer) so receivers never hang —
// and a send failure to one destination must not drop the partial buffers
// of the others, so every flush is attempted. It runs after the feeding
// workers have joined, so the lock is uncontended; holding it keeps the
// guard invariant unconditional.
func (b *batcher) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	var firstErr error
	for _, d := range b.dests {
		if err := b.flushLocked(d); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, d := range b.dests {
		if err := b.e.bus.Send(b.from, d, netsim.Msg{Type: netsim.MsgEOS, Stream: b.stream}); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if b.tupleCounter != "" {
		b.e.rec.AddAt(b.tupleCounter, b.slot, b.tuples)
	}
	return firstErr
}

// CloseWith completes the stream one way or the other: with runErr == nil it
// is Close (flush everything, EOS everywhere); with a failure it drops the
// buffered rows and broadcasts MsgError carrying runErr's classification, so
// every receiver fails fast instead of counting an EOS that will never come.
// The tuple counter still records what was actually shipped.
func (b *batcher) CloseWith(runErr error) error {
	if runErr == nil {
		return b.Close()
	}
	err := b.e.sendAbort(b.from, b.stream, runErr, b.dests)
	if b.tupleCounter != "" {
		b.mu.Lock()
		tuples := b.tuples
		b.mu.Unlock()
		b.e.rec.AddAt(b.tupleCounter, b.slot, tuples)
	}
	return err
}

// recvBatches drains the stream at endpoint `at` until `senders` EOS
// messages arrive, invoking fn for every decoded batch. The batch passed to
// fn is on loan — it is reused for the next message, so fn must copy
// (Clone, InsertBatch, …) anything it keeps. With senders == 0 it returns
// immediately.
//
// Failure semantics: a decode failure or an fn error is recorded (first
// error wins) and the loop keeps draining until every EOS arrives, so
// senders are never left blocked on this receiver's backpressure. An
// incoming MsgError is terminal — a peer aborted the stream — and so is
// cancellation of the per-query context; both return immediately, relying
// on the abort teardown (router Unroute release + context cancellation) to
// unblock the remaining senders.
func (e *Engine) recvBatches(ctx context.Context, at, stream string, senders int, fn func(b *batch.Batch) error) error {
	if senders == 0 {
		return nil
	}
	r := e.routers[at]
	rows, err := r.Route(netsim.MsgRows, stream)
	if err != nil {
		return err
	}
	eos, err := r.Route(netsim.MsgEOS, stream)
	if err != nil {
		return err
	}
	abort, err := r.Route(netsim.MsgError, stream)
	if err != nil {
		return err
	}
	defer r.Unroute(netsim.MsgRows, stream)
	defer r.Unroute(netsim.MsgEOS, stream)
	defer r.Unroute(netsim.MsgError, stream)

	decoded := batch.New(0, 0)
	var consumeErr error
	consume := func(env netsim.Envelope) {
		if consumeErr != nil {
			return // already failed; keep draining the protocol
		}
		payload := env.Payload
		if e.cfg.WireCompression {
			raw, err := compress.Decode(payload)
			if err != nil {
				consumeErr = fmt.Errorf("core: %s decompressing %s from %s: %w", at, stream, env.From, err)
				return
			}
			payload = raw
		}
		if err := batch.DecodeBatch(payload, decoded); err != nil {
			consumeErr = fmt.Errorf("core: %s decoding %s from %s: %w", at, stream, env.From, err)
			return
		}
		if decoded.Len() == 0 {
			return
		}
		if err := fn(decoded); err != nil {
			consumeErr = err
		}
	}

	for remaining := senders; remaining > 0; {
		select {
		case env := <-rows:
			consume(env)
		case <-eos:
			remaining--
		case env := <-abort:
			return decodeAbort(at, stream, env)
		case <-ctx.Done():
			return ctxAbort(ctx, at, stream)
		}
	}
	// Bus ordering: each sender's rows precede its EOS, and the router
	// dispatches sequentially, so by the final EOS every row is buffered.
	// Leftover frames go through the same consume as the main loop —
	// decode-checked, first error wins.
	for {
		select {
		case env := <-rows:
			consume(env)
		default:
			return consumeErr
		}
	}
}

// recvRows is the row-at-a-time adapter over recvBatches: every received
// row is materialized into fresh storage, so fn may retain it.
func (e *Engine) recvRows(ctx context.Context, at, stream string, senders int, fn func(row types.Row) error) error {
	return e.recvBatches(ctx, at, stream, senders, func(b *batch.Batch) error {
		return b.Each(func(i int) error {
			return fn(b.CloneRow(i))
		})
	})
}

// collectRows is recvRows into a slice.
func (e *Engine) collectRows(ctx context.Context, at, stream string, senders int) ([]types.Row, error) {
	var out []types.Row
	err := e.recvRows(ctx, at, stream, senders, func(r types.Row) error {
		out = append(out, r)
		return nil
	})
	return out, err
}

// collectBatches is recvBatches into a slice of cloned batches, returning
// the total live row count alongside.
func (e *Engine) collectBatches(ctx context.Context, at, stream string, senders int) ([]*batch.Batch, int64, error) {
	var out []*batch.Batch
	var n int64
	err := e.recvBatches(ctx, at, stream, senders, func(b *batch.Batch) error {
		out = append(out, b.Clone())
		n += int64(b.Len())
		return nil
	})
	return out, n, err
}

// sendBloom ships a marshalled filter to the destinations, counting the
// bytes moved (the paper's 16 MB filters are visible in the cost model).
func (e *Engine) sendBloom(from, stream string, bf *bloom.Filter, dests []string) error {
	payload := bf.Marshal()
	for _, d := range dests {
		e.rec.Add(metrics.BloomBytes, int64(len(payload)))
		if err := e.bus.Send(from, d, netsim.Msg{Type: netsim.MsgBloom, Stream: stream, Payload: payload}); err != nil {
			return err
		}
	}
	return nil
}

// recvBloom receives `parts` filters at an endpoint and returns their
// union (parts == 1 is a plain receive). Like recvBatches, a bad part is
// recorded and the loop keeps collecting the remaining parts so senders are
// never stranded; an incoming MsgError or context cancellation is terminal.
func (e *Engine) recvBloom(ctx context.Context, at, stream string, parts int) (*bloom.Filter, error) {
	r := e.routers[at]
	ch, err := r.Route(netsim.MsgBloom, stream)
	if err != nil {
		return nil, err
	}
	abort, err := r.Route(netsim.MsgError, stream)
	if err != nil {
		r.Unroute(netsim.MsgBloom, stream)
		return nil, err
	}
	defer r.Unroute(netsim.MsgBloom, stream)
	defer r.Unroute(netsim.MsgError, stream)
	var out *bloom.Filter
	var consumeErr error
	for i := 0; i < parts; i++ {
		select {
		case env := <-ch:
			if consumeErr != nil {
				continue // already failed; keep draining the protocol
			}
			bf, err := bloom.Unmarshal(env.Payload)
			if err != nil {
				consumeErr = fmt.Errorf("core: %s bloom %s from %s: %w", at, stream, env.From, err)
				continue
			}
			if out == nil {
				out = bf
			} else if err := out.Union(bf); err != nil {
				consumeErr = err
			}
		case env := <-abort:
			return nil, decodeAbort(at, stream, env)
		case <-ctx.Done():
			return nil, ctxAbort(ctx, at, stream)
		}
	}
	if consumeErr != nil {
		return nil, consumeErr
	}
	return out, nil
}

// jenNames returns all JEN worker endpoint names.
func (e *Engine) jenNames() []string {
	out := make([]string, e.jen.Workers())
	for i := range out {
		out[i] = jenName(i)
	}
	return out
}

// dbNames returns all DB worker endpoint names.
func (e *Engine) dbNames() []string {
	out := make([]string, e.db.Workers())
	for i := range out {
		out[i] = dbName(i)
	}
	return out
}
