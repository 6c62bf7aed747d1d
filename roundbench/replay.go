package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"time"

	"fedms/internal/aggregate"
	"fedms/internal/compress"
	"fedms/internal/core"
	"fedms/internal/sched"
)

// engineReplay re-runs the engine's codec and aggregation work for one
// round from inputs captured outside the engine, through the entry
// points the engine itself calls, and times each call. The engine's
// validated config carries the rules already passed through
// aggregate.WithWorkers, so the replay dispatches to the same kernels.
//
// Rules are never wrapped: dispatch type-switches on the concrete rule,
// so a wrapper would silently take the fallback path.
type engineReplay struct {
	cfg core.Config
	dim int

	codecs  []compress.Codec
	encBufs [][]byte
	// sent[t%len] holds round t's upload payloads, kept for the async
	// replay's stale arrivals.
	sent [][]compress.Payload

	lastAgg    [][]float64
	aggBufs    [][]float64
	filterBufs [][]float64

	encode, server, filter []span
	fused, fallback        int
	// mismatches counts clients whose replayed filter output differs
	// from the model the engine installed: a replay that diverges
	// measured some other computation.
	mismatches int
}

func newEngineReplay(cfg core.Config, w0 []float64) (*engineReplay, error) {
	if cfg.Upload != core.SparseUpload || cfg.Shards > 1 || cfg.LossOracle != nil ||
		!cfg.DownlinkCodec.IsDense() || cfg.NumByzantineClients > 0 {
		return nil, fmt.Errorf("roundbench: replay covers sparse-upload, unsharded, oracle-free, dense-downlink, benign-client configs only")
	}
	r := &engineReplay{
		cfg:        cfg,
		dim:        len(w0),
		lastAgg:    make([][]float64, cfg.Servers),
		aggBufs:    make([][]float64, cfg.Servers),
		filterBufs: make([][]float64, cfg.Clients),
		sent:       make([][]compress.Payload, cfg.Staleness+1),
		encBufs:    make([][]byte, cfg.Clients),
	}
	for i := range r.lastAgg {
		r.lastAgg[i] = append([]float64(nil), w0...)
	}
	if !cfg.UploadCodec.IsDense() {
		r.codecs = make([]compress.Codec, cfg.Clients)
		for k := range r.codecs {
			c, err := cfg.UploadCodec.NewCodec(core.ClientCodecSeed(cfg.Seed, k))
			if err != nil {
				return nil, err
			}
			r.codecs[k] = c
		}
	}
	return r, nil
}

// assignment maps each server to its uploading clients in round t
// under the engine's sparse upload.
func assignment(cfg core.Config, t int, active []int) [][]int {
	assign := make([][]int, cfg.Servers)
	for _, k := range active {
		i := core.SparseUploadChoice(cfg.Seed, t, k, cfg.Servers)
		assign[i] = append(assign[i], k)
	}
	return assign
}

// denseWire is the dense codec's wire form (little-endian float64s), so
// a replayed dense payload is a byte view exactly like one parsed off a
// frame or out of the spill buffer.
func denseWire(v []float64) []byte {
	b := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
	return b
}

// round replays round t: uploads[k] is client k's upload (nil when
// inactive), tampered the Byzantine models sent this round, installed[k]
// the model client k installed.
func (r *engineReplay) round(t int, uploads [][]float64, tampered map[tamperKey][]float64, installed [][]float64) error {
	cfg := r.cfg
	active := core.ActiveClients(cfg.Seed, t, cfg.Clients, cfg.Participation)
	views := make([]compress.Payload, cfg.Clients)
	for _, k := range active {
		if r.codecs == nil {
			views[k] = compress.DensePayload(uploads[k])
			continue
		}
		start := time.Now()
		var enc compress.Encoding
		enc, r.encBufs[k] = r.codecs[k].AppendEncode(r.encBufs[k][:0], uploads[k])
		r.encode = append(r.encode, span{t, start, time.Now()})
		data := r.encBufs[k]
		if cfg.Async {
			data = append([]byte(nil), data...) // may be replayed in a later round
		}
		v, err := compress.ParsePayload(enc, data)
		if err != nil {
			return fmt.Errorf("replay encode: %w", err)
		}
		views[k] = v
	}
	if cfg.Async && r.codecs == nil {
		// Stale dense uploads come back out of the spill buffer as wire
		// bytes; fresh ones stay float views. Keep the byte form for
		// later rounds and the float form for this one.
		stale := make([]compress.Payload, cfg.Clients)
		for _, k := range active {
			v, err := compress.ParsePayload(compress.EncDense, denseWire(uploads[k]))
			if err != nil {
				return err
			}
			stale[k] = v
		}
		r.sent[t%len(r.sent)] = stale
	} else if cfg.Async {
		r.sent[t%len(r.sent)] = views
	}

	assign := assignment(cfg, t, active)
	aggs := make([][]float64, cfg.Servers)
	for i := 0; i < cfg.Servers; i++ {
		var ordered []compress.Payload
		var weights []float64
		if cfg.Async {
			ordered, weights = r.arrivals(t, i, views)
		} else {
			for _, k := range assign[i] {
				ordered = append(ordered, views[k])
			}
		}
		if len(ordered) == 0 {
			aggs[i] = append([]float64(nil), r.lastAgg[i]...)
			r.lastAgg[i] = aggs[i]
			continue
		}
		var dst []float64
		if !cfg.IsByzantine(i) {
			dst = r.aggBufs[i]
		}
		start := time.Now()
		var fused bool
		if cfg.Async {
			aggs[i], fused = aggregate.AggregateWeightedPayloads(cfg.ServerFilter, dst, ordered, weights)
		} else {
			aggs[i], fused, _ = aggregate.AggregatePayloadsWithOracleInto(cfg.ServerFilter, dst, ordered, nil)
		}
		r.server = append(r.server, span{t, start, time.Now()})
		if fused {
			r.fused++
		} else {
			r.fallback++
		}
		if dst != nil {
			r.aggBufs[i] = aggs[i]
		}
		r.lastAgg[i] = aggs[i]
	}

	received := make([][]float64, cfg.Servers)
	for k := 0; k < cfg.Clients; k++ {
		for i := range received {
			received[i] = aggs[i]
			if !cfg.IsByzantine(i) {
				continue
			}
			v, ok := tampered[tamperKey{i, k}]
			if !ok {
				v, ok = tampered[tamperKey{i, -1}]
			}
			if !ok {
				return fmt.Errorf("replay: round %d: no model from Byzantine server %d for client %d", t, i, k)
			}
			received[i] = v
		}
		start := time.Now()
		r.filterBufs[k], _ = aggregate.AggregateWithOracleInto(cfg.Filter, r.filterBufs[k], received, nil)
		r.filter = append(r.filter, span{t, start, time.Now()})
		if !bitEqual(r.filterBufs[k], installed[k]) {
			r.mismatches++
		}
	}
	return nil
}

// arrivals reconstructs server i's async member set for round t from
// the seeded virtual clock: round o's upload from client k lands at
// o+ArrivalDelay and joins if the scheduler admits it there. Entries
// sort by (client, origin) like the engine's.
func (r *engineReplay) arrivals(t, i int, views []compress.Payload) ([]compress.Payload, []float64) {
	cfg := r.cfg
	type entry struct {
		client, origin int
		w              float64
		v              compress.Payload
	}
	var es []entry
	for o := t - cfg.Staleness; o <= t; o++ {
		if o < 0 {
			continue
		}
		active := core.ActiveClients(cfg.Seed, o, cfg.Clients, cfg.Participation)
		for _, k := range assignment(cfg, o, active)[i] {
			delay := sched.ArrivalDelay(cfg.Seed, o, k, cfg.Window, sched.DefaultLatencyScale)
			if o+delay != t {
				continue
			}
			d := sched.DecideAt(sched.Async, t, o, cfg.Staleness)
			if d.Outcome != sched.Accept && d.Outcome != sched.AcceptStale {
				continue
			}
			v := views[k]
			if o != t {
				v = r.sent[o%len(r.sent)][k]
			}
			es = append(es, entry{k, o, d.Weight, v})
		}
	}
	sort.Slice(es, func(a, b int) bool {
		if es[a].client != es[b].client {
			return es[a].client < es[b].client
		}
		return es[a].origin < es[b].origin
	})
	ps := make([]compress.Payload, len(es))
	ws := make([]float64, len(es))
	for j, e := range es {
		ps[j], ws[j] = e.v, e.w
	}
	return ps, ws
}

func bitEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
