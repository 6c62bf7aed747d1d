package core

import (
	"fedms/internal/aggregate"
	"fedms/internal/obs"
)

// engineMetrics holds the engine's registry collectors: a round
// counter, one latency histogram per round stage, and the fused
// aggregation counters (how many per-server aggregations ran the
// fused payload path vs the densify-first fallback, and the payload
// bytes the aggregation stage consumed, labelled by rule — the same
// split the distributed PS exports as fedms_ps_agg_*). nil when the
// config has no registry — the engine checks once per round.
type engineMetrics struct {
	rounds         *obs.Counter
	aggFused       *obs.Counter
	aggFallback    *obs.Counter
	aggDecodeBytes *obs.Counter
	// aggSharded counts per-server aggregations that ran the two-tier
	// shard tree; shardPeakBytes tracks the largest per-shard
	// accumulator any of them reached — the observable side of the
	// O(K·d/S) memory bound.
	aggSharded     *obs.Counter
	shardPeakBytes *obs.Gauge
	// oracleServer / oracleFilter count holdout-loss oracle
	// evaluations at the two dispatch sites (server aggregation vs
	// the client-side filter). Zero unless a LossRule and a
	// LossOracle are both configured — part of the oracle contract:
	// every eval is observable.
	oracleServer *obs.Counter
	oracleFilter *obs.Counter
	// Async lifecycle collectors: per-admitted-upload staleness (in
	// rounds), window-close counters split by admission outcome, and
	// the deferred-upload spill buffer's depth and byte footprint.
	// Untouched in sync mode.
	staleHist  *obs.Histogram
	winFresh   *obs.Counter
	winStale   *obs.Counter
	winDropped *obs.Counter
	spillDepth *obs.Gauge
	spillBytes *obs.Gauge
	train      *obs.Histogram
	upload     *obs.Histogram
	filter     *obs.Histogram
	eval       *obs.Histogram
}

func newEngineMetrics(reg *obs.Registry, rule string) *engineMetrics {
	if reg == nil {
		return nil
	}
	h := func(stage string) *obs.Histogram {
		return reg.Histogram(`fedms_engine_stage_seconds{stage="`+stage+`"}`, nil)
	}
	return &engineMetrics{
		rounds:         reg.Counter("fedms_engine_rounds_total"),
		aggFused:       reg.Counter("fedms_engine_agg_fused_total"),
		aggFallback:    reg.Counter("fedms_engine_agg_fallback_total"),
		aggDecodeBytes: reg.Counter(`fedms_engine_agg_decode_bytes_total{rule="` + rule + `"}`),
		aggSharded:     reg.Counter("fedms_engine_agg_sharded_total"),
		shardPeakBytes: reg.Gauge("fedms_engine_shard_peak_bytes"),
		oracleServer:   reg.Counter(`fedms_engine_oracle_evals_total{site="server"}`),
		oracleFilter:   reg.Counter(`fedms_engine_oracle_evals_total{site="filter"}`),
		staleHist:      reg.Histogram("fedms_engine_upload_staleness_rounds", []float64{0, 1, 2, 3, 5, 8, 13}),
		winFresh:       reg.Counter(`fedms_engine_window_uploads_total{result="fresh"}`),
		winStale:       reg.Counter(`fedms_engine_window_uploads_total{result="stale"}`),
		winDropped:     reg.Counter(`fedms_engine_window_uploads_total{result="dropped"}`),
		spillDepth:     reg.Gauge("fedms_engine_spill_depth"),
		spillBytes:     reg.Gauge("fedms_engine_spill_bytes"),
		train:          h("train"),
		upload:         h("upload"),
		filter:         h("filter"),
		eval:           h("eval"),
	}
}

// observeAgg exports one round's server aggregations: the per-path
// counters, the shard peak high-water mark and the oracle evals, all
// derived from the plans' Results, plus the payload bytes the stage
// consumed.
func (m *engineMetrics) observeAgg(t aggregate.Tally, decodeBytes int) {
	m.aggFused.Add(int64(t.Fused))
	m.aggFallback.Add(int64(t.Fallback))
	m.aggSharded.Add(int64(t.Sharded))
	m.shardPeakBytes.SetMax(t.PeakBytes)
	m.aggDecodeBytes.Add(int64(decodeBytes))
	m.oracleServer.Add(int64(t.Evals))
}
