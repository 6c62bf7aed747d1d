package node

import (
	"fmt"
	"testing"
	"time"

	"fedms/internal/aggregate"
	"fedms/internal/core"
	"fedms/internal/nn"
	"fedms/internal/obs"
	"fedms/internal/sched"
)

// TestAggPathCountersMatchEngine pins the path counters across the two
// runtimes: for the same seeded config, the engine's
// fedms_engine_agg_{fused,fallback,sharded}_total must equal the sum
// over PSs of fedms_ps_agg_*_total (and the server-side oracle evals
// likewise), because both aggregate through one aggregate.Plan. The
// grid covers the sync lifecycle with a fused rule, a NoFuse-wrapped
// rule and an oracle rule, and the async lifecycle with both weighted
// kernels, each unsharded and sharded. The async runs use a window no
// shorter than the latency scale, so every upload arrives fresh in
// both runtimes and the member sets agree.
func TestAggPathCountersMatchEngine(t *testing.T) {
	const k, p, rounds, seed = 4, 3, 3, 83
	filter := aggregate.TrimmedMean{Beta: 0.2}
	cases := []struct {
		name   string
		rule   aggregate.Rule
		oracle aggregate.LossEval
		async  bool
	}{
		{"sync/mean", aggregate.Mean{}, nil, false},
		{"sync/nofuse-trim", aggregate.NoFuse{Rule: aggregate.TrimmedMean{Beta: 0.2}}, nil, false},
		{"sync/fedgreed-oracle", aggregate.FedGreed{}, testOracle, false},
		{"async/mean", aggregate.Mean{}, nil, true},
		{"async/trim", aggregate.TrimmedMean{Beta: 0.2}, nil, true},
	}
	for _, tc := range cases {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", tc.name, shards), func(t *testing.T) {
				distReg := obs.NewRegistry()
				dist, _ := runDistributedOpts(t, makeLearners(t, k, seed), p, rounds, filter, seed,
					func(c *PSConfig) {
						c.ServerRule, c.LossOracle, c.Shards, c.Obs = tc.rule, tc.oracle, shards, distReg
						if tc.async {
							c.Async, c.Window = true, 10*time.Second
						}
					},
					func(c *ClientConfig) {
						if tc.async {
							c.Async, c.Window, c.LatencyScale = true, 10*time.Second, 10*time.Second
						}
					})

				engReg := obs.NewRegistry()
				cfg := core.Config{
					Clients: k, Servers: p, Rounds: rounds, LocalSteps: 2,
					ServerFilter: tc.rule, LossOracle: tc.oracle, Filter: filter,
					Schedule: nn.ConstantLR(0.3), Seed: seed, Shards: shards, Obs: engReg,
				}
				if tc.async {
					cfg.Async, cfg.Window = true, sched.DefaultLatencyScale
				}
				eng := runEngineCfg(t, makeLearners(t, k, seed), cfg)
				assertSameParams(t, dist, eng, "distributed vs engine")

				total := 0
				for _, path := range []string{"fused", "fallback", "sharded"} {
					want := engReg.Counter("fedms_engine_agg_" + path + "_total").Value()
					var got int64
					for i := 0; i < p; i++ {
						got += distReg.Counter(fmt.Sprintf(`fedms_ps_agg_%s_total{ps="%d"}`, path, i)).Value()
					}
					if got != want {
						t.Errorf("%s: PSs counted %d, engine %d", path, got, want)
					}
					total += int(want)
				}
				if total == 0 {
					t.Fatal("no aggregation was counted")
				}
				wantEvals := engReg.Counter(`fedms_engine_oracle_evals_total{site="server"}`).Value()
				var gotEvals int64
				for i := 0; i < p; i++ {
					gotEvals += distReg.Counter(fmt.Sprintf(`fedms_ps_oracle_evals_total{ps="%d",rule="%s"}`, i, tc.rule.Name())).Value()
				}
				if gotEvals != wantEvals || (tc.oracle != nil) != (wantEvals > 0) {
					t.Errorf("oracle evals: PSs %d, engine %d", gotEvals, wantEvals)
				}
			})
		}
	}
}
