package node

import (
	"strconv"

	"fedms/internal/aggregate"
	"fedms/internal/obs"
)

// psMetrics mirrors PSStats into a live obs.Registry, adding the
// barrier-wait distribution that lifetime counters cannot express.
// The constructor always returns a usable value: with a nil registry
// every collector is nil and every update is a no-op branch, so call
// sites never guard.
type psMetrics struct {
	rounds         *obs.Counter
	uploadsRecv    *obs.Counter
	uploadsMissed  *obs.Counter
	clientsLost    *obs.Counter
	badAccepts     *obs.Counter
	prefilterDrops *obs.Counter
	tokenRejects   *obs.Counter
	rateLimited    *obs.Counter
	handshakePool  *obs.Gauge
	framesSkipped  *obs.Counter
	sendsFailed    *obs.Counter
	bytesIn        *obs.Counter
	bytesOut       *obs.Counter
	floatsIn       *obs.Counter
	floatsOut      *obs.Counter
	aggFused       *obs.Counter
	aggFallback    *obs.Counter
	aggSharded     *obs.Counter
	aggDecodeBytes *obs.Counter
	oracleEvals    *obs.Counter
	shardPeakBytes *obs.Gauge
	barrierWait    *obs.Histogram
	// Async lifecycle collectors (untouched in sync mode): window-close
	// counters split by admission outcome, the window-expiry count, the
	// per-admitted-upload staleness distribution, and the deferred-
	// upload spill buffer's depth and byte footprint.
	winFresh      *obs.Counter
	winStale      *obs.Counter
	winDropped    *obs.Counter
	winDeferred   *obs.Counter
	windowExpired *obs.Counter
	staleHist     *obs.Histogram
	spillDepth    *obs.Gauge
	spillBytes    *obs.Gauge
}

// newPSMetrics takes the aggregation rule's name so the decode-bytes
// counter carries a per-rule label: aggregate decode volume is a
// property of the (server, rule) pair, and dashboards comparing fused
// rules against densify-first fallbacks need the split.
func newPSMetrics(reg *obs.Registry, id int, rule string) *psMetrics {
	l := `{ps="` + strconv.Itoa(id) + `"}`
	c := func(name string) *obs.Counter { return reg.Counter("fedms_ps_" + name + "_total" + l) }
	return &psMetrics{
		rounds:         c("rounds_served"),
		uploadsRecv:    c("uploads_received"),
		uploadsMissed:  c("uploads_missed"),
		clientsLost:    c("clients_lost"),
		badAccepts:     c("bad_accepts"),
		prefilterDrops: c("prefilter_drops"),
		tokenRejects:   c("token_rejects"),
		rateLimited:    c("rate_limited_conns"),
		handshakePool:  reg.Gauge("fedms_ps_handshake_pool_depth" + l),
		framesSkipped:  c("frames_skipped"),
		sendsFailed:    c("sends_failed"),
		bytesIn:        c("bytes_in"),
		bytesOut:       c("bytes_out"),
		floatsIn:       c("floats_in"),
		floatsOut:      c("floats_out"),
		aggFused:       c("agg_fused"),
		aggFallback:    c("agg_fallback"),
		aggSharded:     c("agg_sharded"),
		aggDecodeBytes: reg.Counter(
			`fedms_ps_agg_decode_bytes_total{ps="` + strconv.Itoa(id) + `",rule="` + rule + `"}`),
		oracleEvals: reg.Counter(
			`fedms_ps_oracle_evals_total{ps="` + strconv.Itoa(id) + `",rule="` + rule + `"}`),
		shardPeakBytes: reg.Gauge("fedms_ps_shard_peak_bytes" + l),
		barrierWait:    reg.Histogram("fedms_ps_barrier_wait_seconds"+l, nil),
		winFresh: reg.Counter(
			`fedms_ps_window_uploads_total{ps="` + strconv.Itoa(id) + `",result="fresh"}`),
		winStale: reg.Counter(
			`fedms_ps_window_uploads_total{ps="` + strconv.Itoa(id) + `",result="stale"}`),
		winDropped: reg.Counter(
			`fedms_ps_window_uploads_total{ps="` + strconv.Itoa(id) + `",result="dropped"}`),
		winDeferred: reg.Counter(
			`fedms_ps_window_uploads_total{ps="` + strconv.Itoa(id) + `",result="deferred"}`),
		windowExpired: c("window_expired"),
		staleHist:     reg.Histogram("fedms_ps_upload_staleness_rounds"+l, []float64{0, 1, 2, 3, 5, 8, 13}),
		spillDepth:    reg.Gauge("fedms_ps_spill_depth" + l),
		spillBytes:    reg.Gauge("fedms_ps_spill_bytes" + l),
	}
}

// observeAgg exports one round's aggregation, derived from the plan's
// Result: its path counter, the shard peak high-water mark and the
// oracle evals, plus the payload bytes it consumed.
func (m *psMetrics) observeAgg(t aggregate.Tally, decodeBytes int) {
	m.aggFused.Add(int64(t.Fused))
	m.aggFallback.Add(int64(t.Fallback))
	m.aggSharded.Add(int64(t.Sharded))
	m.shardPeakBytes.SetMax(t.PeakBytes)
	m.aggDecodeBytes.Add(int64(decodeBytes))
	m.oracleEvals.Add(int64(t.Evals))
}

// clientMetrics is the client-side counterpart of psMetrics.
type clientMetrics struct {
	rounds            *obs.Counter
	degraded          *obs.Counter
	modelsRecv        *obs.Counter
	modelsMissed      *obs.Counter
	redialAttempts    *obs.Counter
	redialsOK         *obs.Counter
	uploadBytes       *obs.Counter
	downloadBytes     *obs.Counter
	framesSkipped     *obs.Counter
	filterFused       *obs.Counter
	filterFallback    *obs.Counter
	filterDecodeBytes *obs.Counter
	oracleEvals       *obs.Counter
	recvWait          *obs.Histogram
	// Async lifecycle collectors (untouched in sync mode): stale-tagged
	// backlog sends, due backlog models abandoned because every target
	// server died, and the local backlog depth after each round's sends.
	staleSent      *obs.Counter
	uploadsDropped *obs.Counter
	backlogDepth   *obs.Gauge
}

// newClientMetrics takes the client filter rule's name for the same
// reason newPSMetrics takes the server rule's: the decode-bytes
// counter is labelled per rule.
func newClientMetrics(reg *obs.Registry, id int, rule string) *clientMetrics {
	l := `{client="` + strconv.Itoa(id) + `"}`
	c := func(name string) *obs.Counter { return reg.Counter("fedms_client_" + name + "_total" + l) }
	return &clientMetrics{
		rounds:         c("rounds"),
		degraded:       c("degraded_rounds"),
		modelsRecv:     c("models_received"),
		modelsMissed:   c("models_missed"),
		redialAttempts: c("redial_attempts"),
		redialsOK:      c("redials_ok"),
		uploadBytes:    c("upload_bytes"),
		downloadBytes:  c("download_bytes"),
		framesSkipped:  c("frames_skipped"),
		filterFused:    c("filter_fused"),
		filterFallback: c("filter_fallback"),
		filterDecodeBytes: reg.Counter(
			`fedms_client_filter_decode_bytes_total{client="` + strconv.Itoa(id) + `",rule="` + rule + `"}`),
		oracleEvals: reg.Counter(
			`fedms_client_oracle_evals_total{client="` + strconv.Itoa(id) + `",rule="` + rule + `"}`),
		recvWait:       reg.Histogram("fedms_client_recv_wait_seconds"+l, nil),
		staleSent:      c("stale_uploads"),
		uploadsDropped: c("uploads_dropped"),
		backlogDepth:   reg.Gauge("fedms_client_backlog_depth" + l),
	}
}

// observeFilter exports one round's model filter, derived from the
// plan's Result: its path counter and oracle evals, plus the payload
// bytes it consumed.
func (m *clientMetrics) observeFilter(res aggregate.Result, decodeBytes int) {
	if res.Path == aggregate.PathFused {
		m.filterFused.Inc()
	} else {
		m.filterFallback.Inc()
	}
	m.filterDecodeBytes.Add(int64(decodeBytes))
	m.oracleEvals.Add(int64(res.Evals))
}
