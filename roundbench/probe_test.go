package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"

	"fedms"
	"fedms/internal/core"
	"fedms/internal/obs"
	"fedms/internal/sched"
)

// smallConfig is a seconds-scale engine configuration with the same
// shape as the benchmark's workloads: equivocating Noise servers and a
// β = B/P trimmed-mean filter.
func smallConfig(seed uint64) fedms.Config {
	return fedms.Config{
		Clients: 6, Servers: 5, NumByzantine: 1, Rounds: openRounds, LocalSteps: 2,
		TrimBeta: 0.2, LearningRate: 0.1, Attack: equivocatingNoise,
		Dataset: fedms.DatasetSpec{Kind: fedms.DatasetBlobs, Samples: 600, NumClasses: 10,
			Features: 8, Alpha: 10, TrainFrac: 0.8},
		Model:     fedms.ModelSpec{Kind: fedms.ModelMLP, Hidden: []int{16}},
		Seed:      seed,
		EvalEvery: -1,
	}
}

func variants(t *testing.T) map[string]fedms.Config {
	codec := smallConfig(3)
	codec.UploadCodec = "ef+topk:0.1"
	async := smallConfig(4)
	async.Async, async.Window, async.Staleness = true, sched.DefaultLatencyScale/4, 2
	async.SpillDir = t.TempDir()
	median := smallConfig(5)
	median.ServerRule = "median"
	geo := smallConfig(6)
	geo.ServerRule = "geomedian" // no payload kernel: the fallback path
	return map[string]fedms.Config{"dense": smallConfig(2), "codec": codec, "async": async, "median": median, "geomedian": geo}
}

// statsKey is a RoundStats without its wall-clock field.
func statsKey(st core.RoundStats) core.RoundStats {
	st.Elapsed = 0
	return st
}

func sameParams(t *testing.T, name string, a, b []core.Learner) {
	t.Helper()
	for k := range a {
		pa, pb := a[k].Params(), b[k].Params()
		for i := range pa {
			if math.Float64bits(pa[i]) != math.Float64bits(pb[i]) {
				t.Fatalf("%s: client %d param %d differs: %v vs %v", name, k, i, pa[i], pb[i])
			}
		}
	}
}

// TestWrappedEngineBitIdentical pins the traced run's fidelity: an
// engine rebuilt around probed learners and a probed attack computes
// exactly what the plain BuildEngine engine does, and the learner probe
// hands the worker budget through.
func TestWrappedEngineBitIdentical(t *testing.T) {
	const rounds = 3
	for name, cfg := range variants(t) {
		plain, err := fedms.BuildEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		te, err := buildTraced(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for k, p := range te.probes {
			want := plain.Learners()[k].(*core.NNLearner).Workers()
			if got := p.Workers(); got != want || got == 0 {
				t.Fatalf("%s: probe %d reports %d workers, plain learner has %d", name, k, got, want)
			}
		}
		for r := 0; r < rounds; r++ {
			a, b := statsKey(plain.RunRound()), statsKey(te.eng.RunRound())
			if a != b {
				t.Fatalf("%s round %d: RoundStats differ:\nplain  %+v\ntraced %+v", name, r, a, b)
			}
		}
		sameParams(t, name, plain.Learners(), te.inner)
		if len(te.probes[0].train) != rounds || te.probes[0].round != rounds {
			t.Fatalf("%s: probe saw %d LocalTrain calls over %d rounds, want %d", name, len(te.probes[0].train), te.probes[0].round, rounds)
		}
		_ = plain.Close()
		_ = te.eng.Close()
	}
}

func TestLearnerProbeForwardsWorkers(t *testing.T) {
	eng, err := fedms.BuildEngine(smallConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	inner := eng.Learners()[0].(*core.NNLearner)
	p := newLearnerProbe(inner, false)
	p.SetWorkers(3)
	if inner.Workers() != 3 || p.Workers() != 3 {
		t.Fatalf("SetWorkers(3) left inner=%d probe=%d", inner.Workers(), p.Workers())
	}
}

// TestTracedRunSameAggregationPaths: attaching every probe must not move
// a single aggregation between the fused and the fallback path,
// compared with a run that only attaches the obs registry.
func TestTracedRunSameAggregationPaths(t *testing.T) {
	const rounds = 3
	count := func(reg *obs.Registry) [2]int64 {
		return [2]int64{reg.Counter("fedms_engine_agg_fused_total").Value(),
			reg.Counter("fedms_engine_agg_fallback_total").Value()}
	}
	sawFallback := false
	for name, cfg := range variants(t) {
		oc := cfg
		oc.Obs = obs.NewRegistry()
		plain, err := fedms.BuildEngine(oc)
		if err != nil {
			t.Fatal(err)
		}
		te, err := buildTraced(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < rounds; r++ {
			plain.RunRound()
			te.eng.RunRound()
		}
		a, b := count(oc.Obs), count(te.reg)
		if a != b || a[0]+a[1] == 0 {
			t.Fatalf("%s: fused/fallback counts obs-only %v, traced %v", name, a, b)
		}
		sawFallback = sawFallback || a[1] > 0
		_ = plain.Close()
		_ = te.eng.Close()
	}
	if !sawFallback {
		t.Fatal("no variant exercised the fallback path")
	}
}

// perLayerNames reads the per-layer metric names from BENCHMARK.json.
func perLayerNames(t *testing.T) []string {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var b struct {
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range b.PerLayer {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	return names
}

// reportsEveryLayer checks a layer report against the manifest; the
// run adds data.gen_ms and obs.overhead_frac itself.
func reportsEveryLayer(t *testing.T, name string, ms metricSet) {
	t.Helper()
	got := []string{"data.gen_ms", "obs.overhead_frac"}
	for _, m := range ms.list {
		got = append(got, m.Name)
	}
	sort.Strings(got)
	want := perLayerNames(t)
	if len(got) != len(want) {
		t.Fatalf("%s reports %v, BENCHMARK.json lists %v", name, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s reports %v, BENCHMARK.json lists %v", name, got, want)
		}
	}
}

// TestEngineReplayMatchesEngine runs the traced phase on every variant:
// the replayed filter outputs must equal the installed models and the
// replay must take the engine's fused/fallback paths (engineLayers
// fails otherwise).
func TestEngineReplayMatchesEngine(t *testing.T) {
	for name, cfg := range variants(t) {
		var ms metricSet
		if _, _, err := engineLayers(cfg, 0, &ms); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		reportsEveryLayer(t, name, ms)
	}
}

// TestLoopbackMatchesEngine runs one traced and one plain loopback
// federation of a small config: both must reproduce the engine's client
// models, and the traced one's replay must match what the nodes
// computed.
func TestLoopbackMatchesEngine(t *testing.T) {
	w, _ := findWorkload("loopback")
	cfg := w.config(9)
	cfg.Rounds = 3
	cfg.Dataset.Samples, cfg.Dataset.Features = 600, 8
	cfg.Model.Hidden = []int{16}
	ref, err := fedms.BuildEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref.Run()
	want := digest(ref.Learners())
	var feds []*federation
	for _, traced := range []bool{false, true} {
		f, err := runFederation(cfg, traced)
		if err != nil {
			t.Fatal(err)
		}
		if len(f.errs) > 0 || f.failedRounds(cfg) > 0 {
			t.Fatalf("traced=%v: errors %v, %d failed client-rounds", traced, f.errs, f.failedRounds(cfg))
		}
		if got := digest(f.inner); got != want {
			t.Fatalf("traced=%v: digest %016x, engine %016x", traced, got, want)
		}
		if len(f.walls) != cfg.Rounds-1 || f.setup <= 0 {
			t.Fatalf("traced=%v: %d round walls, set-up %v", traced, len(f.walls), f.setup)
		}
		if traced {
			feds = append(feds, f)
		}
	}
	var ms metricSet
	if err := loopbackLayers(cfg, feds, &ms); err != nil {
		t.Fatal(err)
	}
	reportsEveryLayer(t, "loopback", ms)
}
