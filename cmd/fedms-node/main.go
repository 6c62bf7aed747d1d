// Command fedms-node runs one node of a distributed Fed-MS deployment
// over TCP: a parameter server, a client, or (for demos) the whole
// federation in one process.
//
// All nodes must share the same -seed and federation flags so they
// derive identical datasets, partitions, Byzantine identities and
// randomness — there is no coordinator distributing configuration.
//
// Start P parameter servers:
//
//	fedms-node -role ps -id 0 -listen 127.0.0.1:7000 -clients 8 -servers 3 -byzantine 1 -attack noise
//	fedms-node -role ps -id 1 -listen 127.0.0.1:7001 ...
//	fedms-node -role ps -id 2 -listen 127.0.0.1:7002 ...
//
// Then K clients:
//
//	fedms-node -role client -id 0 -peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002 ...
//
// Or run everything locally:
//
//	fedms-node -role local -clients 8 -servers 3 -byzantine 1 -attack noise
package main

import (
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"strings"
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
	"fedms/internal/randx"
	"fedms/internal/transport"
)

type options struct {
	role   string
	id     int
	listen string
	peers  string

	clients    int
	servers    int
	byzantine  int
	rounds     int
	localSteps int
	batch      int
	beta       float64
	attackName string
	clientAtk  string
	byzClients int
	serverBeta float64
	filterSpec string
	serverSpec string
	fullUpload bool
	partic     float64
	shards     int
	lr         float64
	alpha      float64
	samples    int
	seed       uint64
	key        string
	timeout    time.Duration

	helloDeadline time.Duration
	acceptRate    float64
	acceptBurst   int
	connectToken  bool

	faultDrop     float64
	faultCorrupt  float64
	faultDup      float64
	faultDelay    float64
	faultMaxDelay time.Duration
	faultSeed     uint64
	faultCrash    int
	minModels     int

	async        bool
	window       time.Duration
	staleness    int
	spillDir     string
	spillMem     int
	ckptPath     string
	latencyScale time.Duration

	codec     string
	downCodec string
	// upSpec and downSpec are the parsed forms of codec and downCodec,
	// resolved once in run() so every role shares the validation.
	upSpec   compress.Spec
	downSpec compress.Spec

	// filterRule and serverRuleObj are the parsed forms of filterSpec
	// and serverSpec (or the beta-derived defaults when the specs are
	// empty), resolved once in run() like the codec specs. oracle is
	// the shared holdout-loss oracle, non-nil only when one of the
	// rules implements aggregate.LossRule.
	filterRule    aggregate.Rule
	serverRuleObj aggregate.Rule
	oracle        fedms.LossEval

	metricsAddr string
	tracePath   string
	logRounds   bool
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fedms-node:", err)
		os.Exit(1)
	}
}

func parseFlags(args []string) (*options, error) {
	fs := flag.NewFlagSet("fedms-node", flag.ContinueOnError)
	o := &options{}
	fs.StringVar(&o.role, "role", "local", "node role: ps|client|local")
	fs.IntVar(&o.id, "id", 0, "node id (server index for ps, client index for client)")
	fs.StringVar(&o.listen, "listen", "127.0.0.1:0", "listen address (ps role)")
	fs.StringVar(&o.peers, "peers", "", "comma-separated PS addresses in server-id order (client role)")
	fs.IntVar(&o.clients, "clients", 8, "number of clients K")
	fs.IntVar(&o.servers, "servers", 3, "number of parameter servers P")
	fs.IntVar(&o.byzantine, "byzantine", 0, "number of Byzantine servers B")
	fs.IntVar(&o.rounds, "rounds", 10, "training rounds T")
	fs.IntVar(&o.localSteps, "steps", 3, "local SGD iterations per round E")
	fs.IntVar(&o.batch, "batch", 32, "mini-batch size")
	fs.Float64Var(&o.beta, "beta", 0, "trim rate (0 = B/P, negative = vanilla mean)")
	fs.StringVar(&o.attackName, "attack", "none", "Byzantine server attack")
	fs.StringVar(&o.clientAtk, "client-attack", "", "Byzantine client upload attack (upload_signflip|upload_noise|upload_random|upload_scaled)")
	fs.IntVar(&o.byzClients, "byzantine-clients", 0, "number of Byzantine clients")
	fs.Float64Var(&o.serverBeta, "server-beta", 0, "benign servers' trim rate over client uploads (0 = plain mean)")
	fs.StringVar(&o.filterSpec, "filter", "", "client filter rule spec ("+aggregate.RuleGrammar+"); empty = trimmed mean at -beta")
	fs.StringVar(&o.serverSpec, "server-rule", "", "benign servers' aggregation rule spec (same grammar); empty = mean or trimmed mean at -server-beta")
	fs.BoolVar(&o.fullUpload, "full-upload", false, "upload every client's model to every PS (required for robust server rules)")
	fs.Float64Var(&o.partic, "participation", 1, "fraction of clients active per round, in (0, 1]; inactive clients send skip frames")
	fs.IntVar(&o.shards, "shards", 0, "PS-side aggregation shards (>1 streams uploads through the two-tier shard tree; 0/1 unsharded)")
	fs.Float64Var(&o.lr, "lr", 0.1, "constant learning rate")
	fs.Float64Var(&o.alpha, "alpha", 10, "Dirichlet D_alpha (<=0 for IID)")
	fs.IntVar(&o.samples, "samples", 4000, "total dataset samples")
	fs.Uint64Var(&o.seed, "seed", 1, "shared experiment seed")
	fs.StringVar(&o.key, "key", "", "shared secret enabling per-frame HMAC authentication")
	fs.DurationVar(&o.timeout, "timeout", 30*time.Second, "per-frame network timeout")
	fs.DurationVar(&o.helloDeadline, "hello-deadline", 0, "PS per-frame deadline for a new connection's hello handshake (0 = default; slow-loris sockets are cut here)")
	fs.Float64Var(&o.acceptRate, "accept-rate", 0, "PS per-source accept rate limit in connections/second (0 = unlimited)")
	fs.IntVar(&o.acceptBurst, "accept-burst", 0, "per-source accept token-bucket size (requires -accept-rate; 0 = default)")
	fs.BoolVar(&o.connectToken, "connect-token", false, "PS admits only hellos presenting a valid connect token derived from -key (clients mint theirs automatically)")
	fs.Float64Var(&o.faultDrop, "fault-drop", 0, "per-frame probability a sent frame is silently dropped")
	fs.Float64Var(&o.faultCorrupt, "fault-corrupt", 0, "per-frame probability one bit of a sent frame is flipped")
	fs.Float64Var(&o.faultDup, "fault-duplicate", 0, "per-frame probability a sent frame is written twice")
	fs.Float64Var(&o.faultDelay, "fault-delay", 0, "per-frame probability a sent frame is delayed")
	fs.DurationVar(&o.faultMaxDelay, "fault-max-delay", 20*time.Millisecond, "upper bound on injected frame delay")
	fs.Uint64Var(&o.faultSeed, "fault-seed", 0, "fault schedule seed (0 = derive from -seed)")
	fs.IntVar(&o.faultCrash, "fault-crash", 0, "crash this PS after serving N rounds (ps role; local role crashes the last PS)")
	fs.IntVar(&o.minModels, "min-models", 0, "tolerant client: accept a round with >= this many global models (0 = strict, require all P)")
	fs.BoolVar(&o.async, "async", false, "bounded-staleness async rounds: each PS aggregates what arrives within -window, admitting uploads up to -staleness rounds late")
	fs.DurationVar(&o.window, "window", 0, "async per-round aggregation window (0 = default; requires -async)")
	fs.IntVar(&o.staleness, "staleness", 0, "max rounds an upload may be late and still count, down-weighted 1/(1+s) (requires -async)")
	fs.StringVar(&o.spillDir, "spill-dir", "", "directory for the PS deferred-upload spill segment (requires -async; empty = OS temp dir)")
	fs.IntVar(&o.spillMem, "spill-mem", 0, "in-memory byte budget for deferred uploads before spilling to disk (requires -async; 0 = default)")
	fs.StringVar(&o.ckptPath, "checkpoint", "", "PS checkpoint file persisting the round horizon and spill manifest each window; resumes after restart (requires -async)")
	fs.DurationVar(&o.latencyScale, "latency-scale", 0, "client virtual upload-latency scale; an upload arrives floor(U[0,scale)/window) rounds after its origin (0 = default; requires -async)")
	fs.StringVar(&o.codec, "codec", "dense", "upload codec spec: dense, topk:R, randk:R or qN, optionally ef+ prefixed (e.g. ef+topk:0.1)")
	fs.StringVar(&o.downCodec, "downlink-codec", "dense", "downlink codec spec (same grammar, no ef+; dense keeps the wire byte-identical to v1)")
	fs.StringVar(&o.metricsAddr, "metrics-addr", "", "serve Prometheus metrics at /metrics and pprof at /debug/pprof/ on this address (e.g. 127.0.0.1:9090)")
	fs.StringVar(&o.tracePath, "trace", "", "write the per-round JSONL trace to this file when the run ends")
	fs.BoolVar(&o.logRounds, "log", false, "structured per-round logging (log/slog) to stderr")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	return o, nil
}

// validateAsync fail-fasts the bounded-staleness knobs before any
// socket opens, mirroring node.NewPS and node.RunClient validation but
// reporting the offending flag by name. The async/server-rule
// compatibility check lives in run() after resolveRules.
func (o *options) validateAsync() error {
	if !o.async {
		for _, f := range []struct {
			set  bool
			name string
		}{
			{o.window != 0, "-window"},
			{o.staleness != 0, "-staleness"},
			{o.spillDir != "", "-spill-dir"},
			{o.spillMem != 0, "-spill-mem"},
			{o.ckptPath != "", "-checkpoint"},
			{o.latencyScale != 0, "-latency-scale"},
		} {
			if f.set {
				return fmt.Errorf("%s requires -async", f.name)
			}
		}
		return nil
	}
	if o.window < 0 {
		return fmt.Errorf("-window: must be non-negative, got %v", o.window)
	}
	if o.staleness < 0 {
		return fmt.Errorf("-staleness: must be non-negative, got %d", o.staleness)
	}
	if o.spillMem < 0 {
		return fmt.Errorf("-spill-mem: must be non-negative, got %d", o.spillMem)
	}
	if o.latencyScale < 0 {
		return fmt.Errorf("-latency-scale: must be non-negative, got %v", o.latencyScale)
	}
	return nil
}

// faultInjector builds the process-wide fault injector, or nil when no
// fault rate is configured. All nodes of a chaos run must share the
// same fault seed to agree on the schedule they are rehearsing.
func (o *options) faultInjector() *transport.FaultInjector {
	cfg := transport.FaultConfig{
		Seed:      o.faultSeed,
		Drop:      o.faultDrop,
		Corrupt:   o.faultCorrupt,
		Duplicate: o.faultDup,
		Delay:     o.faultDelay,
		MaxDelay:  o.faultMaxDelay,
	}
	if !cfg.Enabled() {
		return nil
	}
	if cfg.Seed == 0 {
		cfg.Seed = o.seed
	}
	return transport.NewFaultInjector(cfg)
}

// tolerant reports whether the node runtime should survive faults
// rather than fail fast on the first one.
func (o *options) tolerant() bool {
	return o.minModels > 0 || o.faultCrash > 0 || o.faultInjector() != nil
}

// psTimeout is the upload-barrier timeout for parameter servers. In
// tolerant mode it is half the client round timeout: a PS stalled by
// one dropped upload still broadcasts with half the window left, so
// the surviving clients' receive deadline does not expire at the same
// instant the late model arrives.
func (o *options) psTimeout() time.Duration {
	if o.tolerant() {
		return o.timeout / 2
	}
	return o.timeout
}

func run(args []string) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	// Reject an unsatisfiable quorum before any server starts listening:
	// a client failing this check after the PSs are up would leave them
	// blocked in Accept with nobody left to connect.
	if o.minModels > o.servers {
		return fmt.Errorf("-min-models %d exceeds -servers %d", o.minModels, o.servers)
	}
	if o.faultDrop < 0 || o.faultDrop > 1 || o.faultCorrupt < 0 || o.faultCorrupt > 1 ||
		o.faultDup < 0 || o.faultDup > 1 || o.faultDelay < 0 || o.faultDelay > 1 {
		return fmt.Errorf("fault rates must be in [0, 1]")
	}
	// Participation and shards fail fast here, before any socket opens,
	// for the same reason as the codec and rule specs below.
	if o.partic <= 0 || o.partic > 1 {
		return fmt.Errorf("-participation: must be in (0, 1], got %v", o.partic)
	}
	if o.shards < 0 {
		return fmt.Errorf("-shards: must be non-negative, got %d", o.shards)
	}
	// The async knobs fail fast here too; the rule-compatibility half of
	// the check runs after resolveRules below.
	if err := o.validateAsync(); err != nil {
		return err
	}
	// Ingest knobs fail fast before any socket opens, mirroring
	// node.NewPS validation but naming the offending flag.
	if o.helloDeadline < 0 {
		return fmt.Errorf("-hello-deadline: must be non-negative, got %v", o.helloDeadline)
	}
	if o.acceptRate < 0 {
		return fmt.Errorf("-accept-rate: must be non-negative, got %v", o.acceptRate)
	}
	if o.acceptBurst < 0 {
		return fmt.Errorf("-accept-burst: must be non-negative, got %d", o.acceptBurst)
	}
	if o.acceptBurst > 0 && o.acceptRate == 0 {
		return fmt.Errorf("-accept-burst requires -accept-rate")
	}
	if o.connectToken && o.key == "" {
		return fmt.Errorf("-connect-token requires -key (tokens are derived from the shared secret)")
	}
	// Codec specs are validated here, before any socket opens, so a typo
	// fails with a usage message instead of a half-started federation.
	if o.upSpec, err = compress.ParseSpec(o.codec); err != nil {
		return fmt.Errorf("-codec: %w", err)
	}
	if o.downSpec, err = compress.ParseSpec(o.downCodec); err != nil {
		return fmt.Errorf("-downlink-codec: %w", err)
	}
	if o.downSpec.EF {
		return fmt.Errorf("-downlink-codec %q: error feedback is per-stream state and cannot be used on the broadcast downlink; drop the ef+ prefix", o.downCodec)
	}
	// Rule specs go through the same pre-socket validation as codecs:
	// an unknown rule name fails fast here instead of leaving a
	// half-started federation behind.
	if err := o.resolveRules(); err != nil {
		return err
	}
	// Async admission down-weights stale uploads before the robust rule,
	// so the benign servers' rule must expose a weighted kernel.
	if o.async && !aggregate.PerCoordinate(o.serverRuleObj) {
		return fmt.Errorf("-async requires a weighted -server-rule (mean, trim:b, median), got %s", o.serverRuleObj.Name())
	}
	st, err := o.setupObs()
	if err != nil {
		return err
	}
	defer st.close()

	switch o.role {
	case "ps":
		err = runPS(o, st)
	case "client":
		err = runClientRole(o, st)
	case "local":
		err = runLocal(o, st)
	default:
		return fmt.Errorf("unknown role %q", o.role)
	}
	// The trace is written even when the run failed: a chaos run that
	// died mid-federation is exactly when the trace matters.
	if werr := st.writeTrace(o.tracePath); werr != nil && err == nil {
		err = werr
	}
	return err
}

// obsState bundles the process-wide observability wiring: one metrics
// registry (served over HTTP when -metrics-addr is set), one bounded
// round trace (written as JSONL when -trace is set), and an optional
// per-round slog logger. All fields may be nil — the runtime treats
// nil as disabled.
type obsState struct {
	reg    *obs.Registry
	trace  *obs.Trace
	logger *slog.Logger
	ln     net.Listener
	srv    *http.Server
}

// setupObs builds the observability state from the flags and, when
// requested, starts the metrics server.
func (o *options) setupObs() (*obsState, error) {
	st := &obsState{}
	if o.tracePath != "" {
		st.trace = obs.NewTrace(0)
	}
	if o.logRounds {
		st.logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	if o.metricsAddr != "" {
		st.reg = obs.NewRegistry()
		if err := st.serveMetrics(o.metricsAddr); err != nil {
			return nil, err
		}
		fmt.Printf("fedms-node: metrics on http://%s/metrics (pprof at /debug/pprof/)\n", st.addr())
	}
	return st, nil
}

// serveMetrics starts the HTTP server exposing the registry in
// Prometheus text format plus net/http/pprof.
func (st *obsState) serveMetrics(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("-metrics-addr %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", st.reg)
	// The default pprof handlers register on http.DefaultServeMux; this
	// server uses its own mux, so mount them explicitly.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	st.ln = ln
	st.srv = &http.Server{Handler: mux}
	go func() { _ = st.srv.Serve(ln) }()
	return nil
}

// addr returns the metrics server's bound address ("" when disabled).
func (st *obsState) addr() string {
	if st.ln == nil {
		return ""
	}
	return st.ln.Addr().String()
}

// writeTrace dumps the round trace as JSONL; a no-op without -trace.
func (st *obsState) writeTrace(path string) error {
	if path == "" || st.trace == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := st.trace.WriteJSONL(f); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("fedms-node: wrote %d trace events to %s\n", st.trace.Len(), path)
	return nil
}

func (st *obsState) close() {
	if st.srv != nil {
		_ = st.srv.Close()
	}
}

// resolved returns the validated shared configuration (Byzantine
// server and client identity sets) exactly as the in-process engine
// derives them.
func (o *options) resolved() (core.Config, error) {
	cfg := core.Config{
		Clients:             o.clients,
		Servers:             o.servers,
		NumByzantine:        o.byzantine,
		NumByzantineClients: o.byzClients,
		Rounds:              o.rounds,
		LocalSteps:          o.localSteps,
		Filter:              aggregate.Mean{},
		Schedule:            nn.ConstantLR(o.lr),
		Seed:                o.seed,
	}
	if o.byzClients > 0 {
		ca, err := attack.ByUploadName(o.clientAtk)
		if err != nil {
			return cfg, fmt.Errorf("byzantine clients need -client-attack: %w", err)
		}
		cfg.ClientAttack = ca
	}
	return cfg.Validate()
}

// byzantineIDs resolves the shared Byzantine server identity set.
func (o *options) byzantineIDs() ([]int, error) {
	cfg, err := o.resolved()
	if err != nil {
		return nil, err
	}
	return cfg.ByzantineIDs, nil
}

// authKey returns the configured HMAC key, or nil when disabled.
func (o *options) authKey() []byte {
	if o.key == "" {
		return nil
	}
	return []byte(o.key)
}

// resolveRules parses -filter and -server-rule through the shared
// aggregate registry, falling back to the historical beta-derived
// defaults when the specs are empty, and builds the holdout-loss
// oracle when either rule needs one. Called from run() before any
// socket opens so a typo fails with a usage message.
func (o *options) resolveRules() error {
	var err error
	if o.filterSpec != "" {
		if o.filterRule, err = aggregate.ParseRule(o.filterSpec); err != nil {
			return fmt.Errorf("-filter: %w", err)
		}
	} else {
		o.filterRule = o.defaultFilter()
	}
	if o.serverSpec != "" {
		if o.serverRuleObj, err = aggregate.ParseRule(o.serverSpec); err != nil {
			return fmt.Errorf("-server-rule: %w", err)
		}
	} else if o.serverBeta > 0 {
		o.serverRuleObj = aggregate.TrimmedMean{Beta: o.serverBeta}
	} else {
		o.serverRuleObj = aggregate.Mean{}
	}
	_, filterLoss := o.filterRule.(aggregate.LossRule)
	_, serverLoss := o.serverRuleObj.(aggregate.LossRule)
	if filterLoss || serverLoss {
		// All nodes derive the oracle from the shared federation flags,
		// so every process scores candidates bit-identically.
		if o.oracle, err = fedms.NewHoldoutOracle(o.fedmsConfig()); err != nil {
			return err
		}
	}
	return nil
}

// serverRule is the aggregation rule benign PSs apply to uploads,
// resolved by resolveRules.
func (o *options) serverRule() aggregate.Rule {
	if o.serverRuleObj == nil {
		// Direct callers (tests) that skipped run(): resolve lazily.
		if err := o.resolveRules(); err != nil {
			panic(err)
		}
	}
	return o.serverRuleObj
}

// clientUploadAttack returns client id's upload attack, or nil if the
// client is benign.
func (o *options) clientUploadAttack(id int) (attack.UploadAttack, error) {
	if o.byzClients == 0 {
		return nil, nil
	}
	cfg, err := o.resolved()
	if err != nil {
		return nil, err
	}
	if !cfg.IsByzantineClient(id) {
		return nil, nil
	}
	return attack.ByUploadName(o.clientAtk)
}

// clientCodec builds client id's upload codec, or nil for dense. The
// seed matches core.ClientCodecSeed so the distributed runtime and the
// in-process engine compress identically round for round.
func (o *options) clientCodec(id int) compress.Codec {
	if o.upSpec.IsDense() {
		return nil
	}
	c, err := o.upSpec.NewCodec(core.ClientCodecSeed(o.seed, id))
	if err != nil {
		// Unreachable: upSpec came from ParseSpec in run().
		panic(err)
	}
	return c
}

// downlinkCodec builds PS id's downlink codec, or nil for dense.
func (o *options) downlinkCodec(id int) compress.Codec {
	if o.downSpec.IsDense() {
		return nil
	}
	c, err := o.downSpec.NewCodec(randx.Derive(o.seed, fmt.Sprintf("downlink/ps%d", id)))
	if err != nil {
		panic(err)
	}
	return c
}

// defaultFilter is the historical -beta-derived client filter, used
// when no -filter spec is given.
func (o *options) defaultFilter() aggregate.Rule {
	if o.beta < 0 {
		return aggregate.Mean{}
	}
	beta := o.beta
	if beta == 0 {
		beta = float64(o.byzantine) / float64(o.servers)
	}
	return aggregate.TrimmedMean{Beta: beta}
}

// filter is the client-side filter rule, resolved by resolveRules.
func (o *options) filter() fedms.Rule {
	if o.filterRule == nil {
		if err := o.resolveRules(); err != nil {
			panic(err)
		}
	}
	return o.filterRule
}

// fedmsConfig is the shared engine configuration every node derives
// its learner (and, for loss rules, its holdout oracle) from.
func (o *options) fedmsConfig() fedms.Config {
	return fedms.Config{
		Clients:      o.clients,
		Servers:      o.servers,
		NumByzantine: o.byzantine,
		Rounds:       o.rounds,
		LocalSteps:   o.localSteps,
		BatchSize:    o.batch,
		LearningRate: o.lr,
		Dataset:      fedms.DatasetSpec{Samples: o.samples, Alpha: o.alpha, Noise: 2.0},
		Seed:         o.seed,
		EvalEvery:    -1,
		Ingest: fedms.IngestConfig{
			HelloDeadline: o.helloDeadline,
			AcceptRate:    o.acceptRate,
			AcceptBurst:   o.acceptBurst,
			RequireToken:  o.connectToken,
		},
	}
}

// learner builds client id's learner from the shared configuration.
func (o *options) learner(id int) (core.Learner, error) {
	eng, err := fedms.BuildEngine(o.fedmsConfig())
	if err != nil {
		return nil, err
	}
	return eng.Learners()[id], nil
}

func runPS(o *options, st *obsState) error {
	byzIDs, err := o.byzantineIDs()
	if err != nil {
		return err
	}
	var atk attack.Attack
	for _, b := range byzIDs {
		if b == o.id {
			if atk, err = attack.ByName(o.attackName); err != nil {
				return err
			}
		}
	}
	ps, err := node.NewPS(node.PSConfig{
		ID:              o.id,
		ListenAddr:      o.listen,
		Clients:         o.clients,
		Rounds:          o.rounds,
		Attack:          atk,
		ServerRule:      o.serverRule(),
		LossOracle:      o.oracle,
		Shards:          o.shards,
		Async:           o.async,
		Window:          o.window,
		Staleness:       o.staleness,
		SpillDir:        o.spillDir,
		SpillMem:        o.spillMem,
		CheckpointPath:  o.ckptPath,
		DownlinkCodec:   o.downlinkCodec(o.id),
		Seed:            o.seed,
		Key:             o.authKey(),
		Timeout:         o.psTimeout(),
		Tolerant:        o.tolerant(),
		HelloDeadline:   o.helloDeadline,
		AcceptRate:      o.acceptRate,
		AcceptBurst:     o.acceptBurst,
		RequireToken:    o.connectToken,
		Faults:          o.faultInjector(),
		CrashAfterRound: o.faultCrash,
		Logger:          st.logger,
		Obs:             st.reg,
		TraceSink:       st.trace,
	})
	if err != nil {
		return err
	}
	role := "benign"
	if atk != nil {
		role = "BYZANTINE(" + atk.Name() + ")"
	}
	fmt.Printf("fedms-node: PS %d (%s) listening on %s\n", o.id, role, ps.Addr())
	return ps.Serve()
}

func runClientRole(o *options, st *obsState) error {
	if o.peers == "" {
		return fmt.Errorf("client role requires -peers")
	}
	servers := strings.Split(o.peers, ",")
	if len(servers) != o.servers {
		return fmt.Errorf("-peers lists %d addresses, want P=%d", len(servers), o.servers)
	}
	learner, err := o.learner(o.id)
	if err != nil {
		return err
	}
	ua, err := o.clientUploadAttack(o.id)
	if err != nil {
		return err
	}
	stats, err := node.RunClient(node.ClientConfig{
		ID:                    o.id,
		Learner:               learner,
		Servers:               servers,
		Rounds:                o.rounds,
		LocalSteps:            o.localSteps,
		Clients:               o.clients,
		Participation:         o.partic,
		UploadAttack:          ua,
		Filter:                o.filter(),
		LossOracle:            o.oracle,
		Schedule:              nn.ConstantLR(o.lr),
		Codec:                 o.clientCodec(o.id),
		AcceptEncodedDownlink: !o.downSpec.IsDense(),
		Async:                 o.async,
		Window:                o.window,
		Staleness:             o.staleness,
		LatencyScale:          o.latencyScale,
		Seed:                  o.seed,
		Key:                   o.authKey(),
		Timeout:               o.timeout,
		EvalEvery:             5,
		MinModels:             o.minModels,
		Faults:                o.faultInjector(),
		Redial:                o.minModels > 0,
		Logger:                st.logger,
		Obs:                   st.reg,
		TraceSink:             st.trace,
	})
	if err != nil {
		return err
	}
	for _, st := range stats {
		if st.Evaluated {
			fmt.Printf("client %d round %d: train_loss=%.4f test_acc=%.4f\n",
				o.id, st.Round, st.TrainLoss, st.TestAcc)
		}
	}
	return nil
}

// runLocal runs the whole federation in one process over loopback TCP.
func runLocal(o *options, st *obsState) error {
	byzIDs, err := o.byzantineIDs()
	if err != nil {
		return err
	}
	byz := make(map[int]attack.Attack, len(byzIDs))
	for _, id := range byzIDs {
		a, err := attack.ByName(o.attackName)
		if err != nil {
			return err
		}
		byz[id] = a
	}

	// One injector serves the whole in-process federation; separate
	// processes reconstruct the identical schedule from the shared
	// fault seed.
	fi := o.faultInjector()
	tolerant := o.tolerant()

	servers := make([]*node.PS, o.servers)
	addrs := make([]string, o.servers)
	for i := range servers {
		crash := 0
		if o.faultCrash > 0 && i == o.servers-1 {
			crash = o.faultCrash
		}
		// Every local PS gets its own checkpoint file: they would
		// otherwise race on the shared path and spill segment.
		ckpt := ""
		if o.ckptPath != "" {
			ckpt = fmt.Sprintf("%s.ps%d", o.ckptPath, i)
		}
		ps, err := node.NewPS(node.PSConfig{
			ID:              i,
			ListenAddr:      "127.0.0.1:0",
			Clients:         o.clients,
			Rounds:          o.rounds,
			Attack:          byz[i],
			ServerRule:      o.serverRule(),
			LossOracle:      o.oracle,
			Shards:          o.shards,
			Async:           o.async,
			Window:          o.window,
			Staleness:       o.staleness,
			SpillDir:        o.spillDir,
			SpillMem:        o.spillMem,
			CheckpointPath:  ckpt,
			DownlinkCodec:   o.downlinkCodec(i),
			Seed:            o.seed,
			Key:             o.authKey(),
			Timeout:         o.psTimeout(),
			Tolerant:        tolerant,
			HelloDeadline:   o.helloDeadline,
			AcceptRate:      o.acceptRate,
			AcceptBurst:     o.acceptBurst,
			RequireToken:    o.connectToken,
			Faults:          fi,
			CrashAfterRound: crash,
			Logger:          st.logger,
			Obs:             st.reg,
			TraceSink:       st.trace,
		})
		if err != nil {
			return err
		}
		servers[i] = ps
		addrs[i] = ps.Addr()
		role := "benign"
		if byz[i] != nil {
			role = "BYZANTINE(" + byz[i].Name() + ")"
		}
		fmt.Printf("fedms-node: PS %d (%s) on %s\n", i, role, ps.Addr())
	}

	var wg sync.WaitGroup
	errCh := make(chan error, o.servers+o.clients)
	for _, ps := range servers {
		wg.Add(1)
		go func(ps *node.PS) {
			defer wg.Done()
			if err := ps.Serve(); err != nil {
				// A scheduled crash is the experiment, not a failure.
				if o.faultCrash > 0 && errors.Is(err, node.ErrCrashed) {
					fmt.Printf("fedms-node: PS crashed after %d rounds (scheduled)\n", o.faultCrash)
					return
				}
				errCh <- err
			}
		}(ps)
	}

	var mu sync.Mutex
	var lastEval float64
	for id := 0; id < o.clients; id++ {
		learner, err := o.learner(id)
		if err != nil {
			return err
		}
		ua, err := o.clientUploadAttack(id)
		if err != nil {
			return err
		}
		wg.Add(1)
		go func(id int, l core.Learner, ua attack.UploadAttack) {
			defer wg.Done()
			stats, err := node.RunClient(node.ClientConfig{
				ID:                    id,
				Learner:               l,
				Servers:               addrs,
				Rounds:                o.rounds,
				LocalSteps:            o.localSteps,
				Clients:               o.clients,
				Participation:         o.partic,
				FullUpload:            o.fullUpload,
				UploadAttack:          ua,
				Filter:                o.filter(),
				LossOracle:            o.oracle,
				Schedule:              nn.ConstantLR(o.lr),
				Codec:                 o.clientCodec(id),
				AcceptEncodedDownlink: !o.downSpec.IsDense(),
				Async:                 o.async,
				Window:                o.window,
				Staleness:             o.staleness,
				LatencyScale:          o.latencyScale,
				Seed:                  o.seed,
				Key:                   o.authKey(),
				Timeout:               o.timeout,
				EvalEvery:             5,
				MinModels:             o.minModels,
				Faults:                fi,
				Redial:                o.minModels > 0,
				Logger:                st.logger,
				Obs:                   st.reg,
				TraceSink:             st.trace,
			})
			if err != nil {
				errCh <- err
				return
			}
			if id == 0 {
				for _, st := range stats {
					if st.Evaluated {
						fmt.Printf("round %d: client0 train_loss=%.4f test_acc=%.4f\n",
							st.Round, st.TrainLoss, st.TestAcc)
						mu.Lock()
						lastEval = st.TestAcc
						mu.Unlock()
					}
				}
			}
		}(id, learner, ua)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		return err
	}
	fmt.Printf("fedms-node: distributed run complete, final client0 accuracy %.4f\n", lastEval)
	return nil
}
