// Command roundbench is the end-to-end Fed-MS round benchmark. It runs
// one workload through the public entry points — fedms.BuildEngine and
// Engine.RunRound for the sim-* workloads, node.NewPS, PS.Serve and
// node.RunClient over loopback TCP for loopback — checks every run's
// output, and prints each metric by name and unit. The last line of
// standard output is one JSON object: correct, attempted, failed and
// metrics.
//
//	go run ./roundbench --workload sim-paper --seed 1 --seconds 25 --trace 0
//
// --trace 0 prints the end-to-end metrics with tracing off; --trace 1
// adds a traced run and prints the per-layer metrics instead. See
// README.md in this directory for the workloads and every metric.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"fedms"
	"fedms/internal/core"
	"fedms/internal/data"
	"fedms/internal/randx"
)

// An engine workload times set-up in two bursts, one before and one
// after its timed rounds, so the median spans the run's whole window
// like the round times do. Each burst builds the engine at least
// minSetups times and until setupBudget has gone by: one build of the
// small workloads takes ~10 ms, too short to time once.
const (
	minSetups   = 3
	maxSetups   = 25
	setupBudget = 500 * time.Millisecond
)

// setUp builds cfg's engine in one burst and returns the build times
// and the last engine; the others are closed.
func setUp(cfg fedms.Config) ([]float64, *core.Engine, error) {
	var setups []float64
	var eng *core.Engine
	for begin := time.Now(); len(setups) < minSetups || (len(setups) < maxSetups && time.Since(begin) < setupBudget); {
		if eng != nil {
			if err := eng.Close(); err != nil {
				return nil, nil, err
			}
			eng = nil
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if eng, err = fedms.BuildEngine(cfg); err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	return setups, eng, nil
}

// result is what one run reports.
type result struct {
	metrics metricSet
	// printed are metrics reported as lines only, outside the JSON
	// result (see README.md, "End-to-end metrics").
	printed   []metric
	attempted int // client-rounds
	failed    int
	checks    []string // failed correctness checks
}

func (r *result) check(ok bool, clientRounds int, format string, args ...any) {
	if !ok {
		r.failed += clientRounds
		r.checks = append(r.checks, fmt.Sprintf(format, args...))
	}
}

func main() {
	name := flag.String("workload", "", "workload name: sim-paper, sim-wide, sim-async or loopback")
	seed := flag.Uint64("seed", 1, "workload seed (passed to Config.Seed)")
	seconds := flag.Float64("seconds", 10, "measurement budget in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "roundbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	budget := time.Duration(*seconds * float64(time.Second))
	fmt.Printf("roundbench workload=%s seed=%d seconds=%g trace=%d gomaxprocs=%d\n",
		w.name, *seed, *seconds, *trace, runtime.GOMAXPROCS(0))

	var res *result
	var err error
	if w.loopback {
		res, err = runLoopback(w, *seed, budget, *trace == 1)
	} else {
		res, err = runSim(w, *seed, budget, *trace == 1)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "roundbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	if *trace == 0 {
		res.printed = append(res.printed, metric{"failed_frac", frac(float64(res.failed), float64(res.attempted)), "ratio",
			fmt.Sprintf("%d of %d client-rounds", res.failed, res.attempted)})
	}
	for _, c := range res.checks {
		fmt.Printf("CHECK FAILED: %s\n", c)
	}
	if err := emit(res); err != nil {
		fmt.Fprintf(os.Stderr, "roundbench: %v\n", err)
		os.Exit(1)
	}
	if len(res.checks) > 0 {
		os.Exit(1)
	}
}

// emit prints every metric on its own line, then the JSON result.
func emit(res *result) error {
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]jm, len(res.metrics.list))
	for _, m := range res.metrics.list {
		if !finite(m.Value) {
			return fmt.Errorf("metric %s is not finite", m.Name)
		}
		fmt.Printf("%-24s %14.6g %-6s %s\n", m.Name, m.Value, m.Unit, m.How)
		metrics[m.Name] = jm{m.Value, m.Unit}
	}
	for _, m := range res.printed {
		fmt.Printf("%-24s %14.6g %-6s %s\n", m.Name, m.Value, m.Unit, m.How)
	}
	b, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{len(res.checks) == 0, res.attempted, res.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// runSim runs an engine workload.
func runSim(w workload, seed uint64, budget time.Duration, traced bool) (*result, error) {
	cfg := w.config(seed)
	if cfg.Async {
		dir, err := os.MkdirTemp("", "roundbench-spill-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		cfg.SpillDir = dir
	}
	res := &result{}

	setups, eng, err := setUp(cfg)
	if err != nil {
		return nil, err
	}
	plainBudget := budget
	if traced {
		plainBudget = budget / 2
	}
	ph, err := runEngine(eng, eng.Learners(), plainBudget, nil)
	if err != nil {
		return nil, err
	}
	_, acc := eng.Evaluate()
	if err := eng.Close(); err != nil {
		return nil, err
	}
	k := cfg.Clients
	res.attempted += k * ph.rounds

	// The traced run of the same seed must install the same models.
	var tracedDigest uint64
	if traced {
		var walls []float64
		tracedDigest, walls, err = engineLayers(cfg, budget/2, &res.metrics)
		res.attempted += k * (warmupRounds + len(walls))
		if err != nil {
			res.check(false, k*len(walls), "%v", err)
		}
		res.metrics.add("data.gen_ms", dataGenMillis(cfg), "ms", "replay: Blobs + Split + DirichletPartition, median of 3")
		res.metrics.add("obs.overhead_frac", median(walls)/median(ph.walls)-1, "ratio", "traced ÷ untraced round_ms.p50 − 1")
	} else {
		runtime.GC()
		te, err := buildTraced(cfg)
		if err != nil {
			return nil, err
		}
		for t := 0; t < checkRounds; t++ {
			te.eng.RunRound()
		}
		tracedDigest = digest(te.inner)
		if err := te.eng.Close(); err != nil {
			return nil, err
		}
		res.attempted += k * checkRounds
	}
	res.check(tracedDigest == ph.digest, k*checkRounds,
		"client-model digest after %d rounds: untraced %016x, traced %016x", checkRounds, ph.digest, tracedDigest)
	res.check(finite(acc), k, "final_acc %v is not finite", acc)
	if traced {
		return res, nil
	}

	more, eng, err := setUp(cfg)
	if err != nil {
		return nil, err
	}
	if err := eng.Close(); err != nil {
		return nil, err
	}
	setups = append(setups, more...)

	var wire float64
	for _, st := range ph.stats {
		wire += float64(st.UploadBytes + st.DownloadBytes)
	}
	n := float64(len(ph.walls))
	endToEnd(res, setups, "median of "+strconv.Itoa(len(setups))+" BuildEngine calls", ph.walls,
		n/ph.active.Seconds(), float64(ph.allocBytes)/n, wire/n, acc)
	return res, nil
}

// runLoopback runs the distributed workload: federations of
// loopbackRounds rounds, repeated until the budget is spent, each
// checked against one untimed engine run of the same config.
func runLoopback(w workload, seed uint64, budget time.Duration, traced bool) (*result, error) {
	cfg := w.config(seed)
	ref, err := fedms.BuildEngine(cfg)
	if err != nil {
		return nil, err
	}
	ref.Run()
	want := digest(ref.Learners())
	if err := ref.Close(); err != nil {
		return nil, err
	}

	res := &result{}
	var last []core.Learner // the latest federation's learners, for final_acc
	run := func(n int, budget time.Duration, traced bool) ([]*federation, error) {
		var feds []*federation
		begin := time.Now()
		for len(feds) < n || time.Since(begin) < budget {
			runtime.GC()
			f, err := runFederation(cfg, traced)
			if err != nil {
				return nil, err
			}
			// A node error or a wrong model fails every client-round of
			// the federation.
			rounds := cfg.Clients * cfg.Rounds
			res.attempted += rounds
			got := digest(f.inner)
			if len(f.errs) > 0 || got != want {
				res.failed += rounds
			} else {
				res.failed += f.failedRounds(cfg)
			}
			for _, e := range f.errs {
				res.checks = append(res.checks, "federation: "+e.Error())
			}
			if got != want {
				res.checks = append(res.checks, fmt.Sprintf("loopback digest %016x, engine %016x (traced=%v)", got, want, traced))
			}
			if !traced {
				last = f.inner
			}
			f.inner = nil
			feds = append(feds, f)
		}
		return feds, nil
	}
	plainBudget := budget
	if traced {
		plainBudget = budget / 2
	}
	plain, err := run(minFederations, plainBudget, false)
	if err != nil {
		return nil, err
	}
	var tracedFeds []*federation
	if traced {
		tracedFeds, err = run(1, budget/2, true)
	} else {
		tracedFeds, err = run(1, 0, true)
	}
	if err != nil {
		return nil, err
	}
	pool := func(feds []*federation) (walls []float64, setups []float64, span time.Duration, alloc uint64) {
		for _, f := range feds {
			walls = append(walls, f.walls...)
			setups = append(setups, f.setup.Seconds())
			span += f.span
			alloc += f.alloc
		}
		return
	}
	walls, setups, span, alloc := pool(plain)
	if traced {
		if err := loopbackLayers(cfg, tracedFeds, &res.metrics); err != nil {
			res.check(false, cfg.Clients*cfg.Rounds*len(tracedFeds), "%v", err)
		}
		res.metrics.add("data.gen_ms", dataGenMillis(cfg), "ms", "replay: Blobs + Split + DirichletPartition, median of 3")
		tw, _, _, _ := pool(tracedFeds)
		res.metrics.add("obs.overhead_frac", median(tw)/median(walls)-1, "ratio", "traced ÷ untraced round_ms.p50 − 1")
		return res, nil
	}

	var wire, acc float64
	for _, f := range plain {
		for _, st := range f.stats {
			for _, s := range st[1:] {
				wire += float64(s.UploadBytes + s.DownloadBytes)
			}
		}
	}
	for _, l := range last {
		_, a := l.Evaluate()
		acc += a / float64(len(last))
	}
	res.check(finite(acc), cfg.Clients, "final_acc %v is not finite", acc)
	n := float64(len(walls))
	endToEnd(res, setups, "median over federations: BuildEngine, listen, dial and hellos until every client trains",
		walls, n/span.Seconds(), float64(alloc)/n, wire/n, acc)
	return res, nil
}

// endToEnd adds the end-to-end metrics every workload reports.
func endToEnd(res *result, setups []float64, setupHow string, walls []float64, perSec, allocPerRound, wirePerRound, acc float64) {
	out := &res.metrics
	out.add("setup_s", median(setups), "s", setupHow)
	out.add("round_ms.p50", median(walls), "ms", fmt.Sprintf("median of %d timed rounds", len(walls)))
	tl := runTail(walls)
	out.add("round_ms.tail", tl.Value, "ms", tl.String())
	out.add("rounds_per_s", perSec, "1/s", "timed rounds ÷ their wall clock")
	out.add("alloc_mb_per_round", allocPerRound/1e6, "MB", "runtime.MemStats.TotalAlloc delta ÷ timed rounds")
	out.add("peak_rss_mb", peakRSSMB(), "MB", "VmHWM of this process")
	out.add("wire_mb_per_round", wirePerRound/1e6, "MB", "upload + download payload bytes per round")
	res.printed = append(res.printed, metric{"final_acc", acc, "ratio", "test accuracy after the timed rounds, mean over evaluated clients"})
}

// dataGenMillis replays the data layer's set-up for cfg — dataset
// generation, train/test split and the Dirichlet partition, with the
// seeds BuildEngine derives — and returns the median of three runs.
func dataGenMillis(cfg fedms.Config) float64 {
	ds := cfg.Dataset
	var runs []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		all := data.Blobs(data.BlobsConfig{
			Samples: ds.Samples, NumClasses: ds.NumClasses, Features: ds.Features,
			Noise: ds.Noise, Spread: ds.Spread, Seed: randx.Derive(cfg.Seed, "dataset"),
		})
		train, _ := all.Split(ds.TrainFrac)
		data.DirichletPartition(train.Y, train.NumClasses, cfg.Clients, ds.Alpha, randx.Derive(cfg.Seed, "partition"))
		runs = append(runs, ms(time.Since(t0)))
	}
	return median(runs)
}

// peakRSSMB reads this process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1e3
		}
	}
	return math.NaN()
}
