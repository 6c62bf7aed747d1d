package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"fedms"
	"fedms/internal/core"
	"fedms/internal/obs"
)

const (
	// warmupRounds run before timing starts: the first round sizes the
	// engine's round-persistent buffers.
	warmupRounds = 1
	// checkRounds is the round count after which every run digests the
	// client models; the traced and untraced runs of a seed must agree
	// on it.
	checkRounds = 2
	// minTimedRounds keeps a slow workload from ending with too few
	// samples for a median.
	minTimedRounds = 3
)

// enginePhase is one engine run: warm-up rounds, then rounds timed
// until the budget is spent.
type enginePhase struct {
	walls      []float64 // ms per timed round
	starts     []time.Time
	stats      []core.RoundStats
	active     time.Duration // wall of the timed rounds, pauses excluded
	allocBytes uint64        // TotalAlloc over the timed rounds
	digest     uint64        // client models after checkRounds rounds
	rounds     int           // RunRound calls, warm-up included
}

// runEngine drives eng through RunRound. inner are the unwrapped
// learners, digested between rounds outside the timing. after, when
// set, runs after each round (the traced run's replay); its time and
// the digest's are excluded from the timed wall clock, and the digest's
// allocations from allocBytes.
func runEngine(eng *core.Engine, inner []core.Learner, budget time.Duration, after func(t int, start time.Time, wall time.Duration) error) (enginePhase, error) {
	var ph enginePhase
	step := func() (time.Time, time.Duration, core.RoundStats) {
		t0 := time.Now()
		st := eng.RunRound()
		return t0, time.Since(t0), st
	}
	pause := func(t int, t0 time.Time, d time.Duration) (time.Duration, error) {
		p0 := time.Now()
		if t+1 == checkRounds {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			ph.digest = digest(inner)
			runtime.ReadMemStats(&m1)
			ph.allocBytes -= m1.TotalAlloc - m0.TotalAlloc
		}
		if after != nil {
			if err := after(t, t0, d); err != nil {
				return 0, err
			}
		}
		return time.Since(p0), nil
	}
	for ; ph.rounds < warmupRounds; ph.rounds++ {
		t0, d, _ := step()
		if _, err := pause(ph.rounds, t0, d); err != nil {
			return ph, err
		}
	}
	// Start every timed phase from a collected heap, so garbage left by
	// set-up is not charged to the first timed rounds.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	begin := time.Now()
	var paused time.Duration
	for ph.rounds < checkRounds || len(ph.walls) < minTimedRounds || time.Since(begin) < budget {
		t0, d, st := step()
		ph.walls = append(ph.walls, ms(d))
		ph.starts = append(ph.starts, t0)
		ph.stats = append(ph.stats, st)
		p, err := pause(ph.rounds, t0, d)
		if err != nil {
			return ph, err
		}
		paused += p
		ph.rounds++
	}
	ph.active = time.Since(begin) - paused
	runtime.ReadMemStats(&m1)
	ph.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	return ph, nil
}

// tracedEngine is an engine built with every observation hook the
// public API offers: the obs registry and trace sink, and probes around
// the injected learners and attack.
type tracedEngine struct {
	eng    *core.Engine
	inner  []core.Learner
	probes []*learnerProbe
	atk    *attackProbe
	reg    *obs.Registry
	trace  *obs.Trace
}

// buildTraced builds cfg's engine through fedms.BuildEngine, then
// rebuilds it with core.NewEngine around probes wrapping the same
// learners and attack. BuildEngine has no learner hook, so this is the
// only way in from outside; TestWrappedEngineBitIdentical pins that the
// rebuilt engine computes what the plain one does.
func buildTraced(cfg fedms.Config) (*tracedEngine, error) {
	te := &tracedEngine{reg: obs.NewRegistry(), trace: obs.NewTrace(0)}
	cfg.Obs, cfg.TraceSink = te.reg, te.trace
	base, err := fedms.BuildEngine(cfg)
	if err != nil {
		return nil, err
	}
	ecfg := base.Config()
	te.inner = base.Learners()
	if err := base.Close(); err != nil {
		return nil, err
	}
	te.atk = &attackProbe{Attack: ecfg.Attack, keep: true}
	ecfg.Attack = te.atk
	wrapped := make([]core.Learner, len(te.inner))
	for k, l := range te.inner {
		p := newLearnerProbe(l, true)
		te.probes = append(te.probes, p)
		wrapped[k] = p
	}
	if te.eng, err = core.NewEngine(ecfg, wrapped); err != nil {
		return nil, err
	}
	// NewEngine installs w0 on every learner but the first; those calls
	// are set-up, not round 0.
	for _, p := range te.probes {
		*p = learnerProbe{inner: p.inner, spans: true}
	}
	return te, nil
}

// engineLayers runs the traced phase and reduces it to per-layer
// metrics over the timed rounds.
func engineLayers(cfg fedms.Config, budget time.Duration, out *metricSet) (uint64, []float64, error) {
	te, err := buildTraced(cfg)
	if err != nil {
		return 0, nil, err
	}
	defer te.eng.Close()
	ecfg := te.eng.Config()
	rep, err := newEngineReplay(ecfg, te.inner[0].Params())
	if err != nil {
		return 0, nil, err
	}
	uploads := make([][]float64, ecfg.Clients)
	installed := make([][]float64, ecfg.Clients)
	var self []float64 // per round, warm-up included
	after := func(t int, start time.Time, wall time.Duration) error {
		var spans []span
		for k, p := range te.probes {
			uploads[k], installed[k] = p.upload, p.installed
			p.upload = nil
			spans = append(spans, roundOf(p.train, t)...)
			spans = append(spans, roundOf(p.params, t)...)
			spans = append(spans, roundOf(p.setParams, t)...)
		}
		te.atk.mu.Lock()
		spans = append(spans, roundOf(te.atk.spans, t)...)
		te.atk.mu.Unlock()
		self = append(self, ms(wall-covered(spans, start, start.Add(wall))))
		return rep.round(t, uploads, te.atk.take(), installed)
	}
	ph, err := runEngine(te.eng, te.inner, budget, after)
	if err != nil {
		return 0, nil, err
	}
	from, to := warmupRounds, ph.rounds

	// core: the engine's own stage clocks from the round trace.
	stage := map[string][]float64{}
	for _, ev := range te.trace.Events() {
		if ev.Name != "engine_round" || ev.Round < from || ev.Round >= to {
			continue
		}
		for _, f := range []string{"train_ms", "upload_ms", "filter_ms", "eval_ms"} {
			stage[f] = append(stage[f], ev.Fields[f])
		}
	}
	residual := make([]float64, len(ph.walls))
	for i, w := range ph.walls {
		residual[i] = w
		for _, f := range []string{"train_ms", "upload_ms", "filter_ms", "eval_ms"} {
			if i < len(stage[f]) {
				residual[i] -= stage[f][i]
			}
		}
	}
	for _, f := range []string{"train", "upload", "filter", "eval"} {
		out.add("core.stage."+f+"_ms", median(stage[f+"_ms"]), "ms", "trace: engine_round."+f+"_ms, median over rounds")
	}
	out.add("core.residual_ms", median(residual), "ms", "derived: round wall − Σ stages, median over rounds")
	out.add("core.self_ms", median(self[from:]), "ms", "derived: round wall − union of nn and attack spans, median over rounds")

	var train, params, setp []span
	for _, p := range te.probes {
		train = append(train, p.train...)
		params = append(params, p.params...)
		setp = append(setp, p.setParams...)
	}
	out.add("nn.local_train_ms", median(callMillis(train, from, to)), "ms", "probe: LocalTrain, median per call")
	out.add("nn.train_busy_ms", median(perRound(train, from, to)), "ms", "probe: Σ LocalTrain per round, median over rounds")
	out.add("nn.params_ms", median(perRound(params, from, to)), "ms", "probe: Σ Params per round, median over rounds")
	out.add("nn.set_params_ms", median(perRound(setp, from, to)), "ms", "probe: Σ SetParams per round, median over rounds")

	n := float64(to - from)
	var upBytes, denseBytes float64
	for _, st := range ph.stats {
		upBytes += float64(st.UploadBytes)
		denseBytes += float64(8 * st.UploadFloats)
	}
	encHow := "replay: Spec.NewCodec + AppendEncode per upload"
	if ecfg.UploadCodec.IsDense() {
		encHow = "dense uploads: the engine runs no codec"
	}
	out.add("compress.encode_ms", median(perRound(rep.encode, from, to)), "ms", encHow+", Σ per round, median over rounds")
	out.add("compress.encode_calls", float64(len(callMillis(rep.encode, from, to)))/n, "count", "replay: encodes per round")
	out.add("compress.upload_bytes", upBytes/n, "bytes", "RoundStats.UploadBytes per round")
	out.add("compress.ratio", upBytes/denseBytes, "ratio", "upload bytes ÷ dense bytes of the same uploads")

	serverHow := "replay: AggregatePayloadsWithOracleInto, per PS-round"
	if ecfg.Async {
		serverHow = "replay: AggregateWeightedPayloads, per PS-round"
	}
	out.add("aggregate.server_ms", median(callMillis(rep.server, from, to)), "ms", serverHow)
	out.add("aggregate.filter_ms", median(callMillis(rep.filter, from, to)), "ms", "replay: AggregateWithOracleInto, per client")
	out.add("aggregate.filter_calls", float64(len(callMillis(rep.filter, from, to)))/n, "count", "replay: filter calls per round")
	fused := float64(te.reg.Counter("fedms_engine_agg_fused_total").Value())
	fallback := float64(te.reg.Counter("fedms_engine_agg_fallback_total").Value())
	out.add("aggregate.fused_frac", frac(fused, fused+fallback), "ratio", "counter: fedms_engine_agg_fused ÷ (fused + fallback)")

	te.atk.mu.Lock()
	tamper := append([]span(nil), te.atk.spans...)
	te.atk.mu.Unlock()
	out.add("attack.tamper_ms", median(perRound(tamper, from, to)), "ms", "probe: Σ Tamper per round, median over rounds")
	out.add("attack.tamper_calls", float64(len(callMillis(tamper, from, to)))/n, "count", "probe: Tamper calls per round")

	var fresh, stale, dropped, depth, sbytes float64
	for _, st := range ph.stats {
		fresh += float64(st.FreshUploads)
		stale += float64(st.StaleUploads)
		dropped += float64(st.DroppedUploads)
		depth += float64(st.SpillDepth)
		sbytes += float64(st.SpillBytes)
	}
	out.add("sched.fresh", fresh/n, "count", "RoundStats.FreshUploads per round")
	out.add("sched.stale", stale/n, "count", "RoundStats.StaleUploads per round")
	out.add("sched.dropped", dropped/n, "count", "RoundStats.DroppedUploads per round")
	out.add("spill.depth", depth/n, "count", "RoundStats.SpillDepth, mean over rounds")
	out.add("spill.bytes", sbytes/n, "bytes", "RoundStats.SpillBytes, mean over rounds")
	addNoNetwork(out)

	if rep.mismatches > 0 {
		return ph.digest, ph.walls, fmt.Errorf("replay diverged: %d filter outputs differ from the installed models", rep.mismatches)
	}
	if int64(rep.fused) != int64(fused) || int64(rep.fallback) != int64(fallback) {
		return ph.digest, ph.walls, fmt.Errorf("replay took another aggregation path: fused/fallback %d/%d, engine %v/%v", rep.fused, rep.fallback, fused, fallback)
	}
	return ph.digest, ph.walls, nil
}

// roundOf returns the spans of round t. Spans are recorded in round
// order, so it scans back from the newest.
func roundOf(spans []span, t int) []span {
	i := len(spans)
	for i > 0 && spans[i-1].round >= t {
		i--
	}
	j := i
	for j < len(spans) && spans[j].round == t {
		j++
	}
	return spans[i:j]
}

// addNoNetwork reports the network layers as zero for the in-process
// engine, which opens no sockets.
func addNoNetwork(out *metricSet) {
	for _, m := range [][2]string{{"transport.frames", "count"}, {"transport.bytes", "bytes"},
		{"transport.errors", "count"}, {"node.barrier_ms", "ms"}, {"node.recv_wait_ms", "ms"},
		{"node.admit_ms", "ms"}, {"node.missed", "count"}, {"node.degraded", "count"}} {
		out.add(m[0], 0, m[1], "n/a: the engine opens no sockets")
	}
}

func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// finite reports whether x is a usable number.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
