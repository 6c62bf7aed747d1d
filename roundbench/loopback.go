package main

import (
	"fmt"
	"sync"
	"time"

	"fedms"
	"fedms/internal/aggregate"
	"fedms/internal/attack"
	"fedms/internal/compress"
	"fedms/internal/core"
	"fedms/internal/nn"
	"fedms/internal/node"
	"fedms/internal/obs"
)

const (
	// loopbackRounds is the length of one loopback federation; a run
	// repeats federations until its budget is spent.
	loopbackRounds = 20
	// minFederations keeps enough set-ups for a median.
	minFederations = 3
	// captureRounds bounds how many rounds of a traced federation keep
	// their received models for the filter replay (K·P·d floats each).
	captureRounds = 6
	// loopbackTimeout bounds every frame send and receive.
	loopbackTimeout = 10 * time.Second
)

// loopbackKey is the shared HMAC key: every frame is authenticated.
var loopbackKey = []byte("roundbench-loopback-hmac-key")

// federation is one loopback run of loopbackRounds rounds: P parameter
// servers and K client goroutines over 127.0.0.1 TCP.
type federation struct {
	// inner are the clients' learners; the caller drops them once it
	// has digested them, so a long run does not keep every
	// federation's models alive.
	inner  []core.Learner
	dim    int
	probes []*learnerProbe
	stats  [][]node.ClientRoundStats
	errs   []error

	setup time.Duration // start until every client made its first LocalTrain call
	walls []float64     // ms, rounds 1..R-1
	span  time.Duration // end of round 0 to end of the last round
	alloc uint64        // TotalAlloc over rounds 1..R-1

	// Traced federations only. The captured models are replayed and
	// dropped when the federation ends; the replay's spans stay.
	runStart []time.Time
	codecs   []*codecProbe
	atk      *attackProbe
	reg      *obs.Registry
	trace    *obs.Trace
	received [][][][]float64 // [client][round-1][server]
	filtered [][][]float64   // [client][round-1]

	serverSpans, filterSpans []span
	mismatches               int
}

// loopbackFilter is the client filter: the β = B/P trimmed mean the
// engine builds for the same config.
func loopbackFilter(cfg fedms.Config) aggregate.Rule {
	return aggregate.TrimmedMean{Beta: float64(cfg.NumByzantine) / float64(cfg.Servers)}
}

// runFederation builds the learners through fedms.BuildEngine, starts
// the servers and clients, and waits for all of them. Errors returned
// are set-up failures; protocol failures land in f.errs.
func runFederation(cfg fedms.Config, traced bool) (*federation, error) {
	t0 := time.Now()
	eng, err := fedms.BuildEngine(cfg)
	if err != nil {
		return nil, err
	}
	f := &federation{inner: eng.Learners(), dim: eng.Dim()}
	if err := eng.Close(); err != nil {
		return nil, err
	}
	p, k, r := cfg.Servers, cfg.Clients, cfg.Rounds
	upSpec, err := compress.ParseSpec(cfg.UploadCodec)
	if err != nil {
		return nil, err
	}
	// Client codecs are built before any node starts, so a bad spec
	// leaves nothing running.
	codecs := make([]compress.Codec, k)
	for id := range codecs {
		if !upSpec.IsDense() {
			if codecs[id], err = upSpec.NewCodec(core.ClientCodecSeed(cfg.Seed, id)); err != nil {
				return nil, err
			}
		}
	}
	if traced {
		f.reg, f.trace = obs.NewRegistry(), obs.NewTrace(0)
		f.runStart = make([]time.Time, k)
		f.codecs = make([]*codecProbe, k)
		f.received = make([][][][]float64, k)
		f.filtered = make([][][]float64, k)
	}
	byz := map[int]bool{}
	for _, id := range cfg.ByzantineIDs {
		byz[id] = true
	}

	servers := make([]*node.PS, p)
	addrs := make([]string, p)
	for i := range servers {
		var atk attack.Attack
		if byz[i] {
			atk = cfg.Attack
			if traced {
				f.atk = &attackProbe{Attack: cfg.Attack}
				atk = f.atk
			}
		}
		ps, err := node.NewPS(node.PSConfig{
			ID: i, ListenAddr: "127.0.0.1:0", Clients: k, Rounds: r,
			Attack: atk, Seed: cfg.Seed, Key: loopbackKey, Timeout: loopbackTimeout,
			Obs: f.reg, TraceSink: f.trace,
		})
		if err != nil {
			for _, s := range servers[:i] {
				_ = s.Close()
			}
			return nil, err
		}
		servers[i], addrs[i] = ps, ps.Addr()
	}

	var wg sync.WaitGroup
	var mu sync.Mutex
	fail := func(err error) {
		mu.Lock()
		f.errs = append(f.errs, err)
		mu.Unlock()
	}
	for _, ps := range servers {
		wg.Add(1)
		go func(ps *node.PS) {
			defer wg.Done()
			if err := ps.Serve(); err != nil {
				fail(err)
			}
		}(ps)
	}
	f.stats = make([][]node.ClientRoundStats, k)
	for id := 0; id < k; id++ {
		probe := newLearnerProbe(f.inner[id], traced)
		if id == 0 {
			probe.memAt = r
		}
		f.probes = append(f.probes, probe)
		ccfg := node.ClientConfig{
			ID: id, Learner: probe, Servers: addrs, Rounds: r, LocalSteps: cfg.LocalSteps,
			Filter: loopbackFilter(cfg), Schedule: nn.ConstantLR(cfg.LearningRate),
			Seed: cfg.Seed, Key: loopbackKey, Timeout: loopbackTimeout,
			Obs: f.reg, TraceSink: f.trace,
		}
		if c := codecs[id]; c != nil {
			ccfg.Codec = c
			if traced {
				f.codecs[id] = &codecProbe{Codec: c}
				ccfg.Codec = f.codecs[id]
			}
		}
		if traced {
			id := id
			ccfg.OnRound = func(round int, received map[int][]float64, filtered []float64) {
				if round < 1 || round > captureRounds {
					return
				}
				models := make([][]float64, p)
				for i, v := range received {
					models[i] = append([]float64(nil), v...)
				}
				f.received[id] = append(f.received[id], models)
				f.filtered[id] = append(f.filtered[id], append([]float64(nil), filtered...))
			}
		}
		wg.Add(1)
		go func(id int, ccfg node.ClientConfig) {
			defer wg.Done()
			if traced {
				f.runStart[id] = time.Now()
			}
			st, err := node.RunClient(ccfg)
			f.stats[id] = st
			if err != nil {
				fail(err)
			}
		}(id, ccfg)
	}
	wg.Wait()

	var ready time.Time
	ends := make([]time.Time, r)
	for _, pr := range f.probes {
		if pr.firstTrain.After(ready) {
			ready = pr.firstTrain
		}
		for i, e := range pr.roundEnd {
			if i < r && e.After(ends[i]) {
				ends[i] = e
			}
		}
	}
	f.setup = ready.Sub(t0)
	if traced && len(f.errs) == 0 {
		f.replay(cfg)
	}
	// Keep the timings, drop the captured models.
	f.received, f.filtered = nil, nil
	for _, c := range f.codecs {
		if c != nil {
			c.out = nil
		}
	}
	for _, pr := range f.probes {
		pr.inner, pr.upload, pr.installed = nil, nil, nil
	}
	if len(f.errs) == 0 {
		for i := 1; i < r; i++ {
			f.walls = append(f.walls, ms(ends[i].Sub(ends[i-1])))
		}
		f.span = ends[r-1].Sub(ends[0])
		f.alloc = f.probes[0].allocEnd - f.probes[0].allocStart
	}
	return f, nil
}

// failedRounds counts the federation's failed client-rounds: rounds a
// client never completed (an error or timeout ended it) and degraded
// rounds with fewer than P models.
func (f *federation) failedRounds(cfg fedms.Config) int {
	failed := 0
	for _, st := range f.stats {
		failed += cfg.Rounds - len(st)
		for _, s := range st {
			if s.Degraded || s.ModelsReceived < cfg.Servers {
				failed++
			}
		}
	}
	return failed
}

// replay times the server aggregation and the client filter of a
// traced federation's captured rounds through
// aggregate.AggregatePayloadsWithOracleInto, with the rules the nodes
// run, and counts replayed outputs that differ from what the nodes
// computed.
func (f *federation) replay(cfg fedms.Config) {
	p := cfg.Servers
	byz := map[int]bool{}
	for _, id := range cfg.ByzantineIDs {
		byz[id] = true
	}
	aggBufs := make([][]float64, p)
	var filterBuf []float64
	for c := 0; c < captureRounds && c < len(f.received[0]); c++ {
		round := c + 1
		// Uploads are captured by the codec probe, so the server side
		// replays only when the clients encode.
		for i := 0; i < p && f.codecs[0] != nil; i++ {
			var ordered []compress.Payload
			for k := 0; k < cfg.Clients; k++ {
				if core.SparseUploadChoice(cfg.Seed, round, k, p) != i {
					continue
				}
				e := f.codecs[k].out[round]
				v, err := compress.ParsePayload(e.enc, e.data)
				if err != nil {
					f.mismatches++
					continue
				}
				ordered = append(ordered, v)
			}
			if len(ordered) == 0 {
				continue
			}
			var dst []float64
			if !byz[i] {
				dst = aggBufs[i]
			}
			start := time.Now()
			agg, _, _ := aggregate.AggregatePayloadsWithOracleInto(aggregate.Mean{}, dst, ordered, nil)
			f.serverSpans = append(f.serverSpans, span{round, start, time.Now()})
			if !byz[i] {
				aggBufs[i] = agg
				if !bitEqual(agg, f.received[0][c][i]) {
					f.mismatches++
				}
			}
		}
		for k := 0; k < cfg.Clients; k++ {
			models := make([]compress.Payload, p)
			for i := range models {
				models[i] = compress.DensePayload(f.received[k][c][i])
			}
			start := time.Now()
			filterBuf, _, _ = aggregate.AggregatePayloadsWithOracleInto(loopbackFilter(cfg), filterBuf, models, nil)
			f.filterSpans = append(f.filterSpans, span{round, start, time.Now()})
			if !bitEqual(filterBuf, f.filtered[k][c]) {
				f.mismatches++
			}
		}
	}
}

// loopbackLayers reduces the traced federations to per-layer metrics
// over rounds 1..R-1 of each.
func loopbackLayers(cfg fedms.Config, feds []*federation, out *metricSet) error {
	for _, name := range []string{"core.stage.train_ms", "core.stage.upload_ms", "core.stage.filter_ms",
		"core.stage.eval_ms", "core.residual_ms", "core.self_ms"} {
		out.add(name, 0, "ms", "n/a: the loopback workload runs no engine")
	}
	r := cfg.Rounds
	var localTrain, busy, params, setp, encode []float64
	var encCalls, upBytes, denseBytes, tamperCalls float64
	var tamper []float64
	var server, filter []span
	mismatches := 0
	var fused, fallback, frames, wireBytes, wireErrs float64
	var barrier, recvWait, admit []float64
	var missed, degraded float64
	rounds := 0.0
	for _, f := range feds {
		var train, par, set, enc []span
		for _, p := range f.probes {
			train = append(train, p.train...)
			par = append(par, p.params...)
			set = append(set, p.setParams...)
		}
		for _, c := range f.codecs {
			if c != nil {
				enc = append(enc, c.spans...)
			}
		}
		localTrain = append(localTrain, callMillis(train, 1, r)...)
		busy = append(busy, perRound(train, 1, r)...)
		params = append(params, perRound(par, 1, r)...)
		setp = append(setp, perRound(set, 1, r)...)
		encode = append(encode, perRound(enc, 1, r)...)
		encCalls += float64(len(callMillis(enc, 1, r)))
		if f.atk != nil {
			tamper = append(tamper, perRound(f.atk.spans, 1, r)...)
			tamperCalls += float64(len(callMillis(f.atk.spans, 1, r)))
		}
		for _, st := range f.stats {
			for _, s := range st[1:] {
				upBytes += float64(s.UploadBytes)
				if s.UploadedTo >= 0 {
					denseBytes += float64(8 * f.dim)
				}
			}
		}
		rounds += float64(r - 1)
		server = append(server, f.serverSpans...)
		filter = append(filter, f.filterSpans...)
		mismatches += f.mismatches

		for i := 0; i < cfg.Servers; i++ {
			fused += float64(f.reg.Counter(fmt.Sprintf(`fedms_ps_agg_fused_total{ps="%d"}`, i)).Value())
			fallback += float64(f.reg.Counter(fmt.Sprintf(`fedms_ps_agg_fallback_total{ps="%d"}`, i)).Value())
		}
		for k := 0; k < cfg.Clients; k++ {
			fused += float64(f.reg.Counter(fmt.Sprintf(`fedms_client_filter_fused_total{client="%d"}`, k)).Value())
			fallback += float64(f.reg.Counter(fmt.Sprintf(`fedms_client_filter_fallback_total{client="%d"}`, k)).Value())
		}
		var nodes []string
		for i := 0; i < cfg.Servers; i++ {
			nodes = append(nodes, fmt.Sprintf("ps%d", i))
		}
		for k := 0; k < cfg.Clients; k++ {
			nodes = append(nodes, fmt.Sprintf("c%d", k))
		}
		for _, n := range nodes {
			c := func(name string) float64 {
				return float64(f.reg.Counter("fedms_transport_" + name + `_total{node="` + n + `"}`).Value())
			}
			frames += c("frames_sent")
			wireBytes += c("bytes_sent")
			wireErrs += c("send_errors") + c("recv_errors") + c("bad_frames") + c("recv_timeouts")
		}
		for _, ev := range f.trace.Events() {
			if ev.Round < 1 {
				continue
			}
			switch ev.Name {
			case "ps_round":
				barrier = append(barrier, ev.Fields["barrier_ms"])
				missed += ev.Fields["missed"]
			case "client_round":
				recvWait = append(recvWait, ev.Fields["recv_wait_ms"])
				degraded += ev.Fields["degraded"]
			}
		}
		for k, p := range f.probes {
			admit = append(admit, ms(p.firstTrain.Sub(f.runStart[k])))
		}
	}
	out.add("nn.local_train_ms", median(localTrain), "ms", "probe: LocalTrain, median per call")
	out.add("nn.train_busy_ms", median(busy), "ms", "probe: Σ LocalTrain over clients per round, median over rounds")
	out.add("nn.params_ms", median(params), "ms", "probe: Σ Params per round, median over rounds")
	out.add("nn.set_params_ms", median(setp), "ms", "probe: Σ SetParams per round, median over rounds")
	out.add("compress.encode_ms", median(encode), "ms", "probe: Σ ClientConfig.Codec AppendEncode per round, median over rounds")
	out.add("compress.encode_calls", encCalls/rounds, "count", "probe: encodes per round")
	out.add("compress.upload_bytes", upBytes/rounds, "bytes", "ClientRoundStats.UploadBytes, Σ per round")
	out.add("compress.ratio", frac(upBytes, denseBytes), "ratio", "upload bytes ÷ dense bytes of the same uploads")
	out.add("aggregate.server_ms", median(callMillis(server, 1, r)), "ms", "replay: AggregatePayloadsWithOracleInto, per PS-round")
	out.add("aggregate.filter_ms", median(callMillis(filter, 1, r)), "ms", "replay: AggregatePayloadsWithOracleInto, per client")
	out.add("aggregate.filter_calls", float64(len(recvWait))/rounds, "count", "trace: client_round events (one filter each) per round")
	out.add("aggregate.fused_frac", frac(fused, fused+fallback), "ratio", "counters: PS agg + client filter fused ÷ (fused + fallback)")
	out.add("attack.tamper_ms", median(tamper), "ms", "probe: Σ Tamper per round, median over rounds")
	out.add("attack.tamper_calls", tamperCalls/rounds, "count", "probe: Tamper calls per round")
	for _, name := range []string{"sched.fresh", "sched.stale", "sched.dropped", "spill.depth"} {
		out.add(name, 0, "count", "n/a: synchronous rounds")
	}
	out.add("spill.bytes", 0, "bytes", "n/a: synchronous rounds")
	total := float64(len(feds) * r) // the counters cover every round, round 0 and hellos included
	out.add("transport.frames", frames/total, "count", "counters: fedms_transport_frames_sent per round, hellos included")
	out.add("transport.bytes", wireBytes/total, "bytes", "counters: fedms_transport_bytes_sent per round, hellos included")
	out.add("transport.errors", wireErrs, "count", "counters: send + recv errors + bad frames + timeouts, whole run")
	out.add("node.barrier_ms", median(barrier), "ms", "trace: ps_round.barrier_ms, median over PS-rounds")
	out.add("node.recv_wait_ms", median(recvWait), "ms", "trace: client_round.recv_wait_ms, median over client-rounds")
	out.add("node.admit_ms", median(admit), "ms", "probe: RunClient start to first LocalTrain (dial + hellos), median over clients")
	out.add("node.missed", missed/rounds, "count", "trace: ps_round.missed per round")
	out.add("node.degraded", degraded/rounds, "count", "trace: client_round.degraded per round")
	if mismatches > 0 {
		return fmt.Errorf("replay diverged: %d replayed outputs differ from what the nodes computed", mismatches)
	}
	return nil
}
