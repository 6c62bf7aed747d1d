// Command fedms-sim runs one configurable Fed-MS simulation and prints
// per-round metrics.
//
// Example (the paper's headline setting, scaled to this machine):
//
//	fedms-sim -clients 50 -servers 10 -byzantine 2 -rounds 60 \
//	          -attack random -beta 0.2 -alpha 10
//
// Use -beta -1 for the vanilla-FL baseline (plain averaging, no
// Byzantine defence).
package main

import (
	"flag"
	"fmt"
	"os"

	"fedms"
	"fedms/internal/aggregate"
	"fedms/internal/attack"
	"fedms/internal/checkpoint"
	"fedms/internal/metrics"
	"fedms/internal/obs"
	"fedms/internal/plot"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fedms-sim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("fedms-sim", flag.ContinueOnError)
	var (
		clients    = fs.Int("clients", 50, "number of clients K")
		servers    = fs.Int("servers", 10, "number of parameter servers P")
		byzantine  = fs.Int("byzantine", 2, "number of Byzantine servers B")
		rounds     = fs.Int("rounds", 60, "training rounds T")
		localSteps = fs.Int("steps", 3, "local SGD iterations per round E")
		batch      = fs.Int("batch", 32, "mini-batch size")
		beta       = fs.Float64("beta", 0, "trim rate (0 = B/P, negative = vanilla mean)")
		filterSpec = fs.String("filter", "", "client filter rule spec (mean|trim:b|median|krum|multikrum|bulyan|geomedian|clip|fedgreed|losscluster); overrides -beta")
		serverSpec = fs.String("server-rule", "", "benign servers' aggregation rule spec (same grammar; empty = mean)")
		attackName = fs.String("attack", "none", "attack: none|noise|random|safeguard|backward|signflip|zero|alie|ipm|codecpoison")
		lr         = fs.Float64("lr", 0.1, "constant learning rate")
		alpha      = fs.Float64("alpha", 10, "Dirichlet D_alpha (<=0 for IID split)")
		dataset    = fs.String("dataset", "blobs", "dataset: blobs|synthimage|cifar10|mnist")
		dataDir    = fs.String("data-dir", "", "data directory (cifar10 or mnist datasets)")
		noise      = fs.Float64("noise", 0, "within-class noise level (0 = dataset default)")
		model      = fs.String("model", "mlp", "model: logistic|mlp|smallcnn|mobilenetv2")
		samples    = fs.Int("samples", 10000, "total dataset samples")
		seed       = fs.Uint64("seed", 1, "experiment seed")
		evalEvery  = fs.Int("eval", 5, "evaluate every N rounds")
		upload     = fs.String("upload", "sparse", "upload strategy: sparse|full|round_robin")
		partic     = fs.Float64("participation", 1, "fraction of clients active per round, in (0, 1]")
		shards     = fs.Int("shards", 0, "server-side aggregation shards (>1 streams uploads through the two-tier shard tree; 0/1 unsharded)")
		asyncMode  = fs.Bool("async", false, "bounded-staleness async rounds: aggregate the uploads arriving within -window of virtual time, admitting uploads up to -staleness rounds late")
		window     = fs.Duration("window", 0, "async aggregation window in virtual time (0 = default; requires -async)")
		staleness  = fs.Int("staleness", 0, "max rounds an upload may be late and still count, down-weighted 1/(1+s) (requires -async)")
		spillDir   = fs.String("spill-dir", "", "directory for the deferred-upload spill segment (requires -async; empty = OS temp dir)")
		spillMem   = fs.Int("spill-mem", 0, "in-memory byte budget for deferred uploads before spilling to disk (requires -async; 0 = default)")
		codec      = fs.String("codec", "dense", "upload codec spec: dense, topk:R, randk:R or qN, optionally ef+ prefixed")
		downCodec  = fs.String("downlink-codec", "dense", "downlink codec spec (same grammar, no ef+)")
		helloDL    = fs.Duration("hello-deadline", 0, "distributed ingest: PS hello handshake deadline recorded in the config (0 = default)")
		acceptRate = fs.Float64("accept-rate", 0, "distributed ingest: per-source accept rate limit in conns/sec (0 = unlimited)")
		acceptBst  = fs.Int("accept-burst", 0, "distributed ingest: per-source accept token-bucket size (requires -accept-rate)")
		connectTok = fs.Bool("connect-token", false, "distributed ingest: require hellos to present a connect token")
		ckptPath   = fs.String("ckpt", "", "save the final consensus model to this checkpoint file")
		asPlot     = fs.Bool("plot", false, "render the accuracy curve as an ASCII chart at the end")
		tracePath  = fs.String("trace", "", "write a JSONL round trace (one engine_round event per round) to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	atk, err := attack.ByName(*attackName)
	if err != nil {
		return err
	}
	// Rule specs fail fast with the flag name, like the codec specs.
	if *filterSpec != "" {
		if _, err := fedms.ParseRule(*filterSpec); err != nil {
			return fmt.Errorf("-filter: %w", err)
		}
	}
	if *serverSpec != "" {
		if _, err := fedms.ParseRule(*serverSpec); err != nil {
			return fmt.Errorf("-server-rule: %w", err)
		}
	}
	// Participation and shards fail fast with the flag name, before any
	// dataset or model is built.
	if *partic <= 0 || *partic > 1 {
		return fmt.Errorf("-participation: must be in (0, 1], got %v", *partic)
	}
	if *shards < 0 {
		return fmt.Errorf("-shards: must be non-negative, got %d", *shards)
	}
	// The async knobs fail fast with the flag name, mirroring the
	// core.Config validation that would otherwise fire inside
	// BuildEngine without naming the offending flag.
	if *asyncMode {
		if *window < 0 {
			return fmt.Errorf("-window: must be non-negative, got %v", *window)
		}
		if *staleness < 0 {
			return fmt.Errorf("-staleness: must be non-negative, got %d", *staleness)
		}
		if *spillMem < 0 {
			return fmt.Errorf("-spill-mem: must be non-negative, got %d", *spillMem)
		}
		// Stale uploads are down-weighted before the robust rule, so
		// the servers' rule must expose a weighted kernel.
		if *serverSpec != "" {
			if r, err := fedms.ParseRule(*serverSpec); err == nil && !aggregate.PerCoordinate(r) {
				return fmt.Errorf("-async requires a weighted -server-rule (mean, trim:b, median), got %s", r.Name())
			}
		}
	} else {
		for _, f := range []struct {
			set  bool
			name string
		}{
			{*window != 0, "-window"},
			{*staleness != 0, "-staleness"},
			{*spillDir != "", "-spill-dir"},
			{*spillMem != 0, "-spill-mem"},
		} {
			if f.set {
				return fmt.Errorf("%s requires -async", f.name)
			}
		}
	}
	// Ingest knobs fail fast with the flag name. The in-process engine
	// opens no sockets — these only matter when the same Config drives
	// the distributed runtime — but a bad value should not survive to
	// that point.
	if *helloDL < 0 {
		return fmt.Errorf("-hello-deadline: must be non-negative, got %v", *helloDL)
	}
	if *acceptRate < 0 {
		return fmt.Errorf("-accept-rate: must be non-negative, got %v", *acceptRate)
	}
	if *acceptBst < 0 {
		return fmt.Errorf("-accept-burst: must be non-negative, got %d", *acceptBst)
	}
	if *acceptBst > 0 && *acceptRate == 0 {
		return fmt.Errorf("-accept-burst requires -accept-rate")
	}
	up := fedms.SparseUpload
	switch *upload {
	case "sparse":
	case "full":
		up = fedms.FullUpload
	case "round_robin":
		up = fedms.RoundRobinUpload
	default:
		return fmt.Errorf("unknown upload strategy %q", *upload)
	}
	cfg := fedms.Config{
		Clients:       *clients,
		Servers:       *servers,
		NumByzantine:  *byzantine,
		Rounds:        *rounds,
		LocalSteps:    *localSteps,
		BatchSize:     *batch,
		TrimBeta:      *beta,
		FilterRule:    *filterSpec,
		ServerRule:    *serverSpec,
		Upload:        up,
		Participation: *partic,
		Shards:        *shards,
		Async:         *asyncMode,
		Window:        *window,
		Staleness:     *staleness,
		SpillDir:      *spillDir,
		SpillMem:      *spillMem,
		Attack:        atk,
		LearningRate:  *lr,
		Dataset: fedms.DatasetSpec{
			Kind:    fedms.DatasetKind(*dataset),
			Samples: *samples,
			Alpha:   *alpha,
			Noise:   *noise,
			Dir:     *dataDir,
		},
		Model:         fedms.ModelSpec{Kind: fedms.ModelKind(*model)},
		Seed:          *seed,
		EvalEvery:     *evalEvery,
		UploadCodec:   *codec,
		DownlinkCodec: *downCodec,
		Ingest: fedms.IngestConfig{
			HelloDeadline: *helloDL,
			AcceptRate:    *acceptRate,
			AcceptBurst:   *acceptBst,
			RequireToken:  *connectTok,
		},
	}
	var trace *fedms.Trace
	if *tracePath != "" {
		trace = obs.NewTrace(0)
		cfg.TraceSink = trace
	}

	eng, err := fedms.BuildEngine(cfg)
	if err != nil {
		return err
	}
	ecfg := eng.Config()
	fmt.Printf("fed-ms: K=%d P=%d B=%d (byzantine ids %v) T=%d E=%d filter=%s attack=%s upload=%s codec=%s dim=%d\n",
		ecfg.Clients, ecfg.Servers, ecfg.NumByzantine, ecfg.ByzantineIDs,
		ecfg.Rounds, ecfg.LocalSteps, ecfg.Filter.Name(), ecfg.Attack.Name(), ecfg.Upload, ecfg.UploadCodec, eng.Dim())

	tbl := metrics.NewTable("")
	accSeries := tbl.Add("test_acc")
	fmt.Printf("%6s  %10s  %9s  %9s  %12s  %9s\n",
		"round", "train_loss", "test_loss", "test_acc", "upload_flts", "spread")
	for t := 0; t < ecfg.Rounds; t++ {
		st := eng.RunRound()
		if st.Evaluated {
			accSeries.Append(st.Round, st.TestAcc)
		}
		if st.Evaluated {
			fmt.Printf("%6d  %10.4f  %9.4f  %9.4f  %12d  %9.3f\n",
				st.Round, st.TrainLoss, st.TestLoss, st.TestAcc, st.UploadFloats, st.ModelSpread)
		} else {
			fmt.Printf("%6d  %10.4f  %9s  %9s  %12d  %9.3f\n",
				st.Round, st.TrainLoss, "-", "-", st.UploadFloats, st.ModelSpread)
		}
	}
	loss, acc := eng.Evaluate()
	fmt.Printf("final: test_loss=%.4f test_acc=%.4f\n", loss, acc)

	if trace != nil {
		f, err := os.Create(*tracePath)
		if err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		if err := trace.WriteJSONL(f); err != nil {
			f.Close()
			return fmt.Errorf("trace: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		fmt.Printf("wrote %d trace events to %s\n", trace.Len(), *tracePath)
	}

	if *asPlot && accSeries.Len() > 0 {
		if err := plot.Render(os.Stdout, tbl, plot.Options{Width: 64, Height: 12, YMin: 0, YMax: 1}); err != nil {
			return err
		}
	}

	if *ckptPath != "" {
		st := &checkpoint.State{
			Round:  ecfg.Rounds,
			Seed:   *seed,
			Meta:   map[string]string{"model": *model, "dataset": *dataset, "attack": ecfg.Attack.Name(), "filter": ecfg.Filter.Name()},
			Params: eng.MeanClientParams(),
		}
		if err := checkpoint.SaveFile(*ckptPath, st); err != nil {
			return fmt.Errorf("save checkpoint: %w", err)
		}
		fmt.Printf("saved consensus model (%d params) to %s\n", len(st.Params), *ckptPath)
	}
	return nil
}
