package core

import (
	"io"
	"log/slog"
	"strings"
	"testing"

	"fedms/internal/aggregate"
	"fedms/internal/attack"
	"fedms/internal/obs"
)

// TestObsDeterminismEngine is the engine half of the observability
// contract: a seeded run with the registry, trace sink and logger all
// enabled must leave every client on bit-identical parameters to the
// same run with observability off. The make verify gate runs this under
// the race detector.
func TestObsDeterminismEngine(t *testing.T) {
	const k, seed = 6, 11
	run := func(cfg Config) [][]float64 {
		learners, _ := testFixture(t, k, seed)
		eng, err := NewEngine(cfg, learners)
		if err != nil {
			t.Fatal(err)
		}
		eng.Run()
		params := make([][]float64, k)
		for i, l := range learners {
			params[i] = l.Params()
		}
		return params
	}

	cfg := baseConfig(k, 4, 1, attack.Random{PerClient: true}, aggregate.TrimmedMean{Beta: 0.25})
	cfg.Rounds = 6
	dark := run(cfg)

	lit := cfg
	reg := obs.NewRegistry()
	trace := obs.NewTrace(0)
	lit.Obs = reg
	lit.TraceSink = trace
	lit.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	observed := run(lit)

	for i := range dark {
		for j := range dark[i] {
			if dark[i][j] != observed[i][j] {
				t.Fatalf("client %d param %d diverged with observability on: %v vs %v",
					i, j, dark[i][j], observed[i][j])
			}
		}
	}

	// The instruments must actually have fired.
	events := trace.Events()
	if len(events) != cfg.Rounds {
		t.Fatalf("trace has %d events, want one engine_round per round (%d)", len(events), cfg.Rounds)
	}
	for _, ev := range events {
		if ev.Name != "engine_round" || ev.Node != "engine" {
			t.Fatalf("unexpected trace event %+v", ev)
		}
	}
	var text strings.Builder
	if err := reg.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fedms_engine_rounds_total", "fedms_engine_stage_seconds"} {
		if !strings.Contains(text.String(), want) {
			t.Fatalf("registry export missing %s:\n%s", want, text.String())
		}
	}
}

// TestEngineShardPeakGaugeKeepsMax: fedms_engine_shard_peak_bytes is a
// high-water mark, so a later round with a smaller shard footprint must
// not lower it.
func TestEngineShardPeakGaugeKeepsMax(t *testing.T) {
	reg := obs.NewRegistry()
	m := newEngineMetrics(reg, "mean")
	for _, peak := range []int64{4096, 1024, 0} {
		m.observeAgg(aggregate.Tally{Sharded: 1, PeakBytes: peak}, 0)
	}
	if got := reg.Gauge("fedms_engine_shard_peak_bytes").Value(); got != 4096 {
		t.Fatalf("shard peak gauge = %d, want the 4096-byte high-water mark", got)
	}
}
