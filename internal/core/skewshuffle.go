package core

import (
	"context"
	"fmt"

	"hybridwh/internal/metrics"
	"hybridwh/internal/netsim"
	"hybridwh/internal/skew"
)

// Skew-resilient shuffle (Config.SkewThreshold): the repartition and zigzag
// joins detect heavy-hitter join keys during the HDFS scan and give them
// hybrid treatment instead of the agreed hash. The handshake piggybacks on
// the zigzag BF_H shape:
//
//  1. Each JEN worker builds a skew.Sketch over its surviving L' keys while
//     scanning (jen.ScanSpec.BuildSketch), buffering the wire-projected
//     batches locally instead of shuffling them.
//  2. The local sketches fan in to the designated worker (MsgControl,
//     stream "sketch"), which merges them, derives the hot set at
//     SkewThreshold, and broadcasts it to every JEN and DB worker
//     (stream "hotset").
//  3. Each JEN worker shuffles its buffered L' through a skew.Partitioner:
//     cold keys to their hash home, hot keys round-robin. Each DB worker
//     ships T' with hot rows replicated to all JEN workers and cold rows
//     hashed.
//
// Exactness: both sides route by the same agreed hot set, so every hot
// (t, l) pair meets on exactly one worker — the one the l row scattered to,
// where the t row was replicated — and every cold pair meets at the key's
// hash home, exactly as before. The sketch only nominates the set; its
// approximation can never duplicate or drop results.
//
// The price is pipeline overlap: L' cannot leave until the hot set exists,
// which is after the whole scan, so the skew path behaves like zigzag's
// sequential tail. Worth it exactly when one key would otherwise serialize
// the join on a single worker.

// skewOn reports whether the skew-resilient shuffle is active.
func (e *Engine) skewOn() bool { return e.cfg.SkewThreshold > 0 }

// sendSketch ships a marshalled sketch, accounting its bytes like the Bloom
// filters and key sets that travel the same fan-in lanes.
func (e *Engine) sendSketch(from, stream string, sk *skew.Sketch, dests []string) error {
	payload := sk.Marshal()
	for _, d := range dests {
		e.rec.Add(metrics.SkewBytes, int64(len(payload)))
		if err := e.bus.Send(from, d, netsim.Msg{Type: netsim.MsgControl, Stream: stream, Payload: payload}); err != nil {
			return err
		}
	}
	return nil
}

// recvSketches receives and merges `parts` sketches. Failure semantics
// match recvKeySets: a bad part is recorded and the fan-in keeps draining;
// MsgError and context cancellation are terminal.
func (e *Engine) recvSketches(ctx context.Context, at, stream string, parts int) (*skew.Sketch, error) {
	r := e.routers[at]
	ch, err := r.Route(netsim.MsgControl, stream)
	if err != nil {
		return nil, err
	}
	abort, err := r.Route(netsim.MsgError, stream)
	if err != nil {
		r.Unroute(netsim.MsgControl, stream)
		return nil, err
	}
	defer r.Unroute(netsim.MsgControl, stream)
	defer r.Unroute(netsim.MsgError, stream)
	out := skew.NewSketch(e.cfg.SkewSketchKeys)
	var consumeErr error
	for i := 0; i < parts; i++ {
		select {
		case env := <-ch:
			if consumeErr != nil {
				continue // already failed; keep draining the protocol
			}
			sk, err := skew.UnmarshalSketch(env.Payload)
			if err != nil {
				consumeErr = fmt.Errorf("core: %s sketch %s from %s: %w", at, stream, env.From, err)
				continue
			}
			out.Merge(sk)
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

// sendHotSet broadcasts the agreed hot set.
func (e *Engine) sendHotSet(from, stream string, hot *skew.HotSet, dests []string) error {
	payload := hot.Marshal()
	for _, d := range dests {
		e.rec.Add(metrics.SkewBytes, int64(len(payload)))
		if err := e.bus.Send(from, d, netsim.Msg{Type: netsim.MsgControl, Stream: stream, Payload: payload}); err != nil {
			return err
		}
	}
	return nil
}

// recvHotSet receives the agreed hot set (one part, from the designated
// worker).
func (e *Engine) recvHotSet(ctx context.Context, at, stream string) (*skew.HotSet, error) {
	r := e.routers[at]
	ch, err := r.Route(netsim.MsgControl, stream)
	if err != nil {
		return nil, err
	}
	abort, err := r.Route(netsim.MsgError, stream)
	if err != nil {
		r.Unroute(netsim.MsgControl, stream)
		return nil, err
	}
	defer r.Unroute(netsim.MsgControl, stream)
	defer r.Unroute(netsim.MsgError, stream)
	select {
	case env := <-ch:
		hot, err := skew.UnmarshalHotSet(env.Payload)
		if err != nil {
			return nil, fmt.Errorf("core: %s hot set %s from %s: %w", at, stream, env.From, err)
		}
		return hot, nil
	case env := <-abort:
		return nil, decodeAbort(at, stream, env)
	case <-ctx.Done():
		return nil, ctxAbort(ctx, at, stream)
	}
}

// agreeHotSet runs the JEN side of the hot-set agreement after the scan:
// send this worker's (possibly empty) sketch to the designated worker; the
// designated worker merges all n, derives the hot set, and broadcasts it to
// every JEN and DB worker; everyone receives the agreed set. Like the
// zigzag BF_H fan-in, the sends happen even when the caller is already
// failing so no peer blocks on a fan-in that will never complete — the
// query's failure travels via MsgError and the context.
func (e *Engine) agreeHotSet(ctx context.Context, qs, me string, w, n int, sk *skew.Sketch) (*skew.HotSet, error) {
	if sk == nil {
		sk = skew.NewSketch(e.cfg.SkewSketchKeys)
	}
	var runErr error
	desig := e.jen.DesignatedWorker()
	firstErr(&runErr, e.sendSketch(me, qs+"sketch", sk, []string{jenName(desig)}))
	if w == desig {
		global, err := e.recvSketches(ctx, me, qs+"sketch", n)
		firstErr(&runErr, err)
		if global == nil {
			global = skew.NewSketch(e.cfg.SkewSketchKeys)
		}
		hot := skew.NewHotSet(global.Hot(e.cfg.SkewThreshold))
		e.rec.Add(metrics.SkewHotKeys, int64(hot.Len()))
		e.rec.Add(metrics.SkewHotPermille, int64(global.HottestShare()*1000))
		firstErr(&runErr, e.sendHotSet(me, qs+"hotset", hot, append(e.jenNames(), e.dbNames()...)))
	}
	hot, err := e.recvHotSet(ctx, me, qs+"hotset")
	firstErr(&runErr, err)
	return hot, runErr
}
