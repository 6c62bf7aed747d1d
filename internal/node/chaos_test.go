package node

import (
	"encoding/binary"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"fedms/internal/aggregate"
	"fedms/internal/attack"
	"fedms/internal/compress"
	"fedms/internal/core"
	"fedms/internal/nn"
	"fedms/internal/obs"
	"fedms/internal/randx"
	"fedms/internal/transport"
)

// chaosOpts parameterizes one deterministic chaos scenario.
type chaosOpts struct {
	k, p, rounds int
	seed         uint64
	filter       aggregate.Rule
	// serverRule overrides the PS aggregation rule (nil keeps the
	// default Mean); the fused-parity tier wraps it in NoFuse. shards
	// sets every PS's aggregation shard count.
	serverRule aggregate.Rule
	shards     int
	minModels  int
	redial     bool
	psTolerant bool
	// clientFaults faults the upload direction (links "c<k>->ps<i>"),
	// psFaults the dissemination direction ("ps<i>->c<k>").
	clientFaults transport.FaultConfig
	psFaults     transport.FaultConfig
	// crashAfter schedules PS crashes: id -> rounds served before the
	// crash.
	crashAfter map[int]int
	byz        map[int]attack.Attack
	// upCodec/downCodec put codec frames on the faulted links; the zero
	// Spec keeps the wire dense.
	upCodec   compress.Spec
	downCodec compress.Spec

	// async switches the scenario to the windowed lifecycle; window,
	// staleness and latencyScale mirror the node configs (zero picks the
	// node defaults). spillDir/spillMem shape the PS spill tier, and
	// checkpoint maps a PS id to its checkpoint path. serverRule must be
	// weighted (nil Mean is) when async is set.
	async        bool
	window       time.Duration
	staleness    int
	latencyScale time.Duration
	spillDir     string
	spillMem     int
	checkpoint   map[int]string

	// flood hammers every PS listener with this many junk connections
	// (garbage bytes, wrong-type frames, forged-length headers) spread
	// over the whole run — accept phase and rounds alike. The ingest
	// path must shed them all: the scenario's models and stats are
	// asserted bit-identical to the flood-free run.
	flood int

	psTimeout     time.Duration
	clientTimeout time.Duration
	onRound       func(client, round int, received map[int][]float64, filtered []float64)

	// Observability hooks shared by every node in the scenario. The obs
	// determinism contract (TestObsDeterminism*) runs the same seeded
	// chaos with and without them and demands bit-identical models.
	reg       *obs.Registry
	traceSink *obs.Trace
	logger    *slog.Logger
}

// runChaos executes a full distributed run under the scenario and
// returns final client params, per-PS stats and per-client round stats.
// Scheduled crashes (ErrCrashed) are part of the scenario, not
// failures.
func runChaos(t *testing.T, o chaosOpts) ([][]float64, []PSStats, [][]ClientRoundStats) {
	t.Helper()
	learners := makeLearners(t, o.k, o.seed)
	var cfi, pfi *transport.FaultInjector
	if o.clientFaults.Enabled() {
		cfi = transport.NewFaultInjector(o.clientFaults)
	}
	if o.psFaults.Enabled() {
		pfi = transport.NewFaultInjector(o.psFaults)
	}

	servers := make([]*PS, o.p)
	addrs := make([]string, o.p)
	for i := 0; i < o.p; i++ {
		var dc compress.Codec
		if !o.downCodec.IsDense() {
			var err error
			dc, err = o.downCodec.NewCodec(randx.Derive(o.seed, fmt.Sprintf("downlink/ps%d", i)))
			if err != nil {
				t.Fatal(err)
			}
		}
		ps, err := NewPS(PSConfig{
			ID:              i,
			ListenAddr:      "127.0.0.1:0",
			Clients:         o.k,
			Rounds:          o.rounds,
			Attack:          o.byz[i],
			ServerRule:      o.serverRule,
			Shards:          o.shards,
			Seed:            o.seed,
			Timeout:         o.psTimeout,
			Tolerant:        o.psTolerant,
			Faults:          pfi,
			CrashAfterRound: o.crashAfter[i],
			DownlinkCodec:   dc,
			Async:           o.async,
			Window:          o.window,
			Staleness:       o.staleness,
			SpillDir:        o.spillDir,
			SpillMem:        o.spillMem,
			CheckpointPath:  o.checkpoint[i],
			Logger:          o.logger,
			Obs:             o.reg,
			TraceSink:       o.traceSink,
		})
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = ps
		addrs[i] = ps.Addr()
	}

	// The junk storm runs concurrently with the entire federation; its
	// dial errors are expected once listeners start closing.
	var floodWG sync.WaitGroup
	if o.flood > 0 {
		const workers = 32
		junk := [][]byte{
			[]byte("GET / HTTP/1.1\r\nHost: ps\r\n\r\n"),
			[]byte("SSH-2.0-OpenSSH_9.6\r\n"),
			transport.Encode(&transport.Message{Type: transport.TypeUpload, Flag: 1, Vec: []float64{1, 2}}),
			floodForgedFrame(),
			{0xD5, 0xFE}, // magic then silence (truncated header)
		}
		floodWG.Add(workers)
		for w := 0; w < workers; w++ {
			go func(w int) {
				defer floodWG.Done()
				for i := w; i < o.flood; i += workers {
					raw, err := net.DialTimeout("tcp", addrs[i%o.p], time.Second)
					if err != nil {
						continue
					}
					_, _ = raw.Write(junk[i%len(junk)])
					_ = raw.Close()
				}
			}(w)
		}
	}

	var wg sync.WaitGroup
	errCh := make(chan error, o.p+o.k)
	for _, ps := range servers {
		wg.Add(1)
		go func(ps *PS) {
			defer wg.Done()
			if err := ps.Serve(); err != nil && !errors.Is(err, ErrCrashed) {
				errCh <- err
			}
		}(ps)
	}
	clientStats := make([][]ClientRoundStats, o.k)
	for id, l := range learners {
		wg.Add(1)
		go func(id int, l core.Learner) {
			defer wg.Done()
			var hook func(round int, received map[int][]float64, filtered []float64)
			if o.onRound != nil {
				hook = func(round int, received map[int][]float64, filtered []float64) {
					o.onRound(id, round, received, filtered)
				}
			}
			var uc compress.Codec
			if !o.upCodec.IsDense() {
				var err error
				uc, err = o.upCodec.NewCodec(core.ClientCodecSeed(o.seed, id))
				if err != nil {
					errCh <- err
					return
				}
			}
			st, err := RunClient(ClientConfig{
				ID:                    id,
				Learner:               l,
				Servers:               addrs,
				Rounds:                o.rounds,
				LocalSteps:            2,
				Filter:                o.filter,
				Schedule:              nn.ConstantLR(0.3),
				Seed:                  o.seed,
				Timeout:               o.clientTimeout,
				MinModels:             o.minModels,
				Redial:                o.redial,
				Faults:                cfi,
				OnRound:               hook,
				Codec:                 uc,
				AcceptEncodedDownlink: !o.downCodec.IsDense(),
				Async:                 o.async,
				Window:                o.window,
				Staleness:             o.staleness,
				LatencyScale:          o.latencyScale,
				Logger:                o.logger,
				Obs:                   o.reg,
				TraceSink:             o.traceSink,
			})
			if err != nil {
				errCh <- err
				return
			}
			clientStats[id] = st
		}(id, l)
	}
	wg.Wait()
	floodWG.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatalf("chaos run failed: %v", err)
	}

	params := make([][]float64, o.k)
	for i, l := range learners {
		params[i] = l.Params()
	}
	stats := make([]PSStats, o.p)
	for i, ps := range servers {
		stats[i] = ps.Stats()
	}
	return params, stats, clientStats
}

// floodForgedFrame builds a hello whose length field claims the
// protocol-maximum body — the unbounded-Decode attack shape: a
// pre-fix server would allocate 512 MB from this header before any
// validation. The prefilter must reject it from the peeked header.
func floodForgedFrame() []byte {
	frame := transport.Encode(&transport.Message{Type: transport.TypeHello, Flag: 1, Vec: []float64{1}})
	binary.LittleEndian.PutUint32(frame[20:], uint32(transport.MaxVecLen))
	return frame[:24] // header only: claim big, send nothing
}

// TestChaosFloodJunkStorm is the connection-flood chaos gate: a healthy
// tolerant federation hammered by thousands of junk connections —
// garbage preambles, wrong-type frames, forged 512 MB length claims,
// truncated headers — must produce the bit-identical final model of
// the flood-free run, with every round served and every upload
// received. The flood overlaps the accept phase and the rounds; the
// shed/prefilter path is the only thing standing between it and the
// protocol. 10k connections under -race is the verify-stage load; the
// short-mode run keeps a meaningful storm.
func TestChaosFloodJunkStorm(t *testing.T) {
	flood := 10000
	if testing.Short() {
		flood = 1000
	}
	base := chaosOpts{
		k: 4, p: 2, rounds: 3, seed: 404,
		filter:        aggregate.TrimmedMean{Beta: 0.2},
		psTolerant:    true,
		psTimeout:     5 * time.Second,
		clientTimeout: 10 * time.Second,
	}
	clean, _, _ := runChaos(t, base)

	stormy := base
	stormy.flood = flood
	stormed, stats, _ := runChaos(t, stormy)

	assertSameParams(t, clean, stormed, "junk storm vs clean run")
	uploads := 0
	for i, st := range stats {
		if st.RoundsServed != base.rounds {
			t.Fatalf("PS %d protocol perturbed by flood: %+v", i, st)
		}
		if st.UploadsMissed != 0 || st.ClientsLost != 0 {
			t.Fatalf("PS %d lost honest traffic under flood: %+v", i, st)
		}
		uploads += st.UploadsReceived
	}
	// The sparse-upload rule sends each client's model to exactly one
	// PS per round; the flood must not cost a single one.
	if uploads != base.k*base.rounds {
		t.Fatalf("uploads received %d, want %d", uploads, base.k*base.rounds)
	}
}

// TestChaosUploadFaultScenarios is the table-driven chaos tier: each
// scenario faults the upload direction under a tolerant PS, and must
// (a) complete all rounds, (b) keep every client on the identical final
// model (dissemination is clean, so models agree), and (c) reproduce
// the exact same final model when rerun with the same seed.
func TestChaosUploadFaultScenarios(t *testing.T) {
	// psTimeout is the PS's per-frame receive window, i.e. the round
	// barrier: an honest upload that arrives later than this is counted
	// missed, which would make (c) depend on scheduler load rather than
	// on the seeded fault schedule. The tolerant PS caps a dropped
	// frame's stall at half this window (the straggler deadline in
	// serveRound), leaving the other half as margin for next round's
	// honest uploads; a generous window therefore costs little wall
	// time and keeps the injected faults the only source of misses
	// even under the race detector.
	base := chaosOpts{
		k: 4, p: 2, rounds: 5, seed: 101,
		filter:        aggregate.TrimmedMean{Beta: 0.2},
		psTolerant:    true,
		psTimeout:     2 * time.Second,
		clientTimeout: 8 * time.Second,
	}
	scenarios := []struct {
		name       string
		faults     transport.FaultConfig
		wantMissed bool
	}{
		{"drop-only", transport.FaultConfig{Seed: 7, Drop: 0.2}, true},
		{"corrupt-only", transport.FaultConfig{Seed: 7, Corrupt: 0.25}, true},
		{"duplicate-only", transport.FaultConfig{Seed: 7, Duplicate: 0.3}, false},
		{"mixed", transport.FaultConfig{Seed: 7, Drop: 0.1, Corrupt: 0.1, Duplicate: 0.1}, true},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			o := base
			o.clientFaults = sc.faults

			params, stats, clientStats := runChaos(t, o)
			for _, st := range clientStats {
				if len(st) != o.rounds {
					t.Fatalf("client completed %d rounds, want %d", len(st), o.rounds)
				}
			}
			for i := 1; i < o.k; i++ {
				assertSameParams(t, [][]float64{params[0]}, [][]float64{params[i]}, "client agreement")
			}
			missed := 0
			for _, st := range stats {
				missed += st.UploadsMissed
				if st.RoundsServed != o.rounds {
					t.Fatalf("PS served %d rounds, want %d", st.RoundsServed, o.rounds)
				}
				if st.ClientsLost != 0 {
					t.Fatalf("PS lost %d clients under recoverable faults", st.ClientsLost)
				}
			}
			if sc.wantMissed && missed == 0 {
				t.Fatal("no uploads missed — fault schedule never fired")
			}
			if !sc.wantMissed && missed != 0 {
				t.Fatalf("%d uploads missed under loss-free faults", missed)
			}

			again, _, _ := runChaos(t, o)
			assertSameParams(t, params, again, "seeded rerun")
		})
	}
}

// TestChaosDelayOnlyMatchesEngine: injected delays below every timeout
// lose nothing, so the distributed run must stay bit-identical to the
// in-process engine — chaos that only reorders time cannot change the
// computation.
func TestChaosDelayOnlyMatchesEngine(t *testing.T) {
	const k, p, rounds, seed = 4, 3, 4, 102
	delay := transport.FaultConfig{Seed: 5, Delay: 0.5, MaxDelay: 5 * time.Millisecond}
	params, _, _ := runChaos(t, chaosOpts{
		k: k, p: p, rounds: rounds, seed: seed,
		filter:        aggregate.TrimmedMean{Beta: 0.2},
		clientFaults:  delay,
		psFaults:      delay,
		psTimeout:     5 * time.Second,
		clientTimeout: 5 * time.Second,
	})
	eng := runEngine(t, makeLearners(t, k, seed), p, rounds, 0, nil,
		attack.None{}, aggregate.TrimmedMean{Beta: 0.2}, seed)
	assertSameParams(t, params, eng, "delay-only chaos vs engine")
}

// TestChaosCrashBenignPS: one benign PS crashes mid-training; every
// client must degrade to P' = P-1 models from the crash round on,
// surface the shortfall in its stats, and still agree on the final
// model.
func TestChaosCrashBenignPS(t *testing.T) {
	const crashRounds = 2
	o := chaosOpts{
		k: 3, p: 4, rounds: 4, seed: 103,
		filter:        aggregate.TrimmedMean{Beta: 0.25},
		minModels:     3,
		crashAfter:    map[int]int{3: crashRounds},
		psTimeout:     5 * time.Second,
		clientTimeout: 2 * time.Second,
	}
	params, stats, clientStats := runChaos(t, o)
	for i := 1; i < o.k; i++ {
		assertSameParams(t, [][]float64{params[0]}, [][]float64{params[i]}, "client agreement")
	}
	for id, st := range clientStats {
		if len(st) != o.rounds {
			t.Fatalf("client %d completed %d rounds, want %d", id, len(st), o.rounds)
		}
		for _, rs := range st {
			if rs.Round < crashRounds {
				if rs.Degraded || rs.ModelsReceived != o.p {
					t.Fatalf("client %d round %d: degraded before the crash: %+v", id, rs.Round, rs)
				}
			} else if !rs.Degraded || rs.ModelsReceived != o.p-1 {
				t.Fatalf("client %d round %d: shortfall not surfaced: %+v", id, rs.Round, rs)
			}
		}
	}
	if stats[3].RoundsServed != crashRounds {
		t.Fatalf("crashed PS served %d rounds, want %d", stats[3].RoundsServed, crashRounds)
	}

	again, _, _ := runChaos(t, o)
	assertSameParams(t, params, again, "seeded rerun")
}

// TestChaosCrashPlusByzantine is the integration acceptance criterion:
// P=5, B=1 Byzantine PS, plus one benign PS crashed mid-run. Every
// round's filtered model must stay within the coordinate-wise bounds of
// the benign models that actually arrived (Lemma 2 under partial
// participation), and the run must stay deterministic.
func TestChaosCrashPlusByzantine(t *testing.T) {
	const byzID = 4
	var mu sync.Mutex
	violations := 0
	o := chaosOpts{
		k: 4, p: 5, rounds: 4, seed: 104,
		filter:        aggregate.TrimmedMean{Beta: 0.2},
		minModels:     3,
		crashAfter:    map[int]int{2: 2},
		byz:           map[int]attack.Attack{byzID: attack.Noise{Sigma: 10}},
		psTimeout:     5 * time.Second,
		clientTimeout: 2 * time.Second,
		onRound: func(client, round int, received map[int][]float64, filtered []float64) {
			dim := len(filtered)
			for j := 0; j < dim; j++ {
				lo, hi := math.Inf(1), math.Inf(-1)
				for ps, vec := range received {
					if ps == byzID {
						continue
					}
					lo = math.Min(lo, vec[j])
					hi = math.Max(hi, vec[j])
				}
				if filtered[j] < lo-1e-9 || filtered[j] > hi+1e-9 {
					mu.Lock()
					violations++
					mu.Unlock()
					return
				}
			}
		},
	}
	params, _, clientStats := runChaos(t, o)
	if violations != 0 {
		t.Fatalf("filtered model left the benign coordinate bounds in %d rounds", violations)
	}
	for i := 1; i < o.k; i++ {
		assertSameParams(t, [][]float64{params[0]}, [][]float64{params[i]}, "client agreement")
	}
	for id, st := range clientStats {
		if len(st) != o.rounds {
			t.Fatalf("client %d completed %d rounds, want %d", id, len(st), o.rounds)
		}
		if !st[o.rounds-1].Degraded || st[o.rounds-1].ModelsReceived != o.p-1 {
			t.Fatalf("client %d final round not degraded to P-1: %+v", id, st[o.rounds-1])
		}
	}

	again, _, _ := runChaos(t, o)
	assertSameParams(t, params, again, "seeded rerun")
}

// TestChaosCrashRestart: a PS crashes after two rounds and is restarted
// at the round its clients will send next; redialling clients must fold
// it back into the federation and finish all rounds.
func TestChaosCrashRestart(t *testing.T) {
	const k, p, rounds, seed = 3, 2, 6, 105
	const crashRounds = 2 // ps1 serves rounds 0-1, misses round 2, rejoins at 3
	learners := makeLearners(t, k, seed)

	ps0, err := NewPS(PSConfig{
		ID: 0, ListenAddr: "127.0.0.1:0", Clients: k, Rounds: rounds,
		Seed: seed, Timeout: 5 * time.Second, Tolerant: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ps1, err := NewPS(PSConfig{
		ID: 1, ListenAddr: "127.0.0.1:0", Clients: k, Rounds: rounds,
		Seed: seed, Timeout: 5 * time.Second, Tolerant: true,
		CrashAfterRound: crashRounds,
	})
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{ps0.Addr(), ps1.Addr()}

	var wg sync.WaitGroup
	errCh := make(chan error, k+3)
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := ps0.Serve(); err != nil {
			errCh <- err
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := ps1.Serve(); !errors.Is(err, ErrCrashed) {
			errCh <- err
			return
		}
		// Restart on the same address, rejoining at the round the
		// clients send after their degraded round.
		restarted, err := NewPS(PSConfig{
			ID: 1, ListenAddr: addrs[1], Clients: k, Rounds: rounds,
			StartRound: crashRounds + 1,
			Seed:       seed, Timeout: 5 * time.Second, Tolerant: true,
		})
		if err != nil {
			errCh <- err
			return
		}
		if err := restarted.Serve(); err != nil {
			errCh <- err
		}
	}()

	clientStats := make([][]ClientRoundStats, k)
	for id, l := range learners {
		wg.Add(1)
		go func(id int, l core.Learner) {
			defer wg.Done()
			st, err := RunClient(ClientConfig{
				ID: id, Learner: l, Servers: addrs,
				Rounds: rounds, LocalSteps: 2,
				Filter: aggregate.Mean{}, Schedule: nn.ConstantLR(0.3),
				Seed: seed, Timeout: 2 * time.Second,
				MinModels: 1, Redial: true,
				DialAttempts: 5, DialBackoff: 50 * time.Millisecond,
			})
			if err != nil {
				errCh <- err
				return
			}
			clientStats[id] = st
		}(id, l)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatalf("crash-restart run failed: %v", err)
	}

	for id, st := range clientStats {
		if len(st) != rounds {
			t.Fatalf("client %d completed %d rounds, want %d", id, len(st), rounds)
		}
		for _, rs := range st {
			degradedRound := rs.Round == crashRounds
			if degradedRound != rs.Degraded {
				t.Fatalf("client %d round %d: Degraded = %v, want %v (stats %+v)",
					id, rs.Round, rs.Degraded, degradedRound, rs)
			}
		}
	}
	p0 := learners[0].Params()
	for i := 1; i < k; i++ {
		pi := learners[i].Params()
		for j := range p0 {
			if p0[j] != pi[j] {
				t.Fatalf("clients diverged after crash-restart (param %d)", j)
			}
		}
	}

}

// TestChaosCodecUploadFaults puts codec frames on faulted uplinks: a
// corrupted or truncated v2 payload must degrade exactly like a dropped
// dense frame — counted missed, connection kept — and the seeded rerun
// must reproduce the final model bit for bit.
func TestChaosCodecUploadFaults(t *testing.T) {
	// Same seeds as the dense TestChaosUploadFaultScenarios: those fault
	// schedules are known to keep every miss attributable to an injected
	// fault (not to barrier-deadline jitter) even under -race, so the
	// rerun assertion stays meaningful with codec frames on the wire.
	base := chaosOpts{
		k: 4, p: 2, rounds: 5, seed: 101,
		filter:        aggregate.TrimmedMean{Beta: 0.2},
		psTolerant:    true,
		psTimeout:     2 * time.Second,
		clientTimeout: 8 * time.Second,
		upCodec:       mustSpec(t, "q8"),
		downCodec:     mustSpec(t, "topk:0.5"),
	}
	scenarios := []struct {
		name   string
		faults transport.FaultConfig
	}{
		{"corrupt", transport.FaultConfig{Seed: 7, Corrupt: 0.25}},
		{"truncate", transport.FaultConfig{Seed: 7, Truncate: 0.2}},
		{"mixed", transport.FaultConfig{Seed: 7, Drop: 0.1, Corrupt: 0.1, Duplicate: 0.1}},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			o := base
			o.clientFaults = sc.faults

			params, stats, clientStats := runChaos(t, o)
			for _, st := range clientStats {
				if len(st) != o.rounds {
					t.Fatalf("client completed %d rounds, want %d", len(st), o.rounds)
				}
			}
			// Downlink is clean, so every client ends on the same model.
			for i := 1; i < o.k; i++ {
				assertSameParams(t, [][]float64{params[0]}, [][]float64{params[i]}, "client agreement")
			}
			missed := 0
			for _, st := range stats {
				missed += st.UploadsMissed
				if st.RoundsServed != o.rounds {
					t.Fatalf("PS served %d rounds, want %d", st.RoundsServed, o.rounds)
				}
				if st.ClientsLost != 0 {
					t.Fatalf("PS condemned %d connections for recoverable codec-frame faults", st.ClientsLost)
				}
			}
			if missed == 0 {
				t.Fatal("no uploads missed — fault schedule never hit a codec frame")
			}

			again, _, _ := runChaos(t, o)
			assertSameParams(t, params, again, "seeded rerun")
		})
	}
}

// TestChaosCodecDownlinkCorrupt corrupts encoded downlink frames: a
// client that cannot decode a global model must degrade that round to
// the survivors (like a drop) without condemning the healthy connection
// or stalling the federation. No seeded-rerun assertion here: a lost
// downlink frame stalls its client for the full recv window (the PS
// only broadcasts again next round), which delays the next broadcast
// for every peer by the same amount — whether their reads then beat
// their own deadlines is a property of scheduler load, not of the
// fault schedule. The upload-direction scenarios pin codec-chaos
// determinism; this one pins the degradation semantics.
func TestChaosCodecDownlinkCorrupt(t *testing.T) {
	// Mean instead of TrimmedMean: a round can degrade all the way to
	// one surviving model, which no nonzero trim could absorb.
	o := chaosOpts{
		k: 3, p: 3, rounds: 5, seed: 107,
		filter:        aggregate.Mean{},
		minModels:     1,
		psTolerant:    true,
		psFaults:      transport.FaultConfig{Seed: 13, Corrupt: 0.2},
		psTimeout:     2 * time.Second,
		clientTimeout: 8 * time.Second,
		upCodec:       mustSpec(t, "q8"),
		downCodec:     mustSpec(t, "q8"),
	}
	_, stats, clientStats := runChaos(t, o)
	degraded := 0
	for id, st := range clientStats {
		if len(st) != o.rounds {
			t.Fatalf("client %d completed %d rounds, want %d", id, len(st), o.rounds)
		}
		for _, rs := range st {
			if rs.Degraded {
				degraded++
				if rs.ModelsReceived >= o.p || rs.ModelsReceived < o.minModels {
					t.Fatalf("client %d round %d: degraded to %d models", id, rs.Round, rs.ModelsReceived)
				}
			}
		}
	}
	if degraded == 0 {
		t.Fatal("no degraded rounds — downlink fault schedule never fired")
	}
	for _, st := range stats {
		if st.RoundsServed != o.rounds {
			t.Fatalf("PS served %d rounds, want %d", st.RoundsServed, o.rounds)
		}
		if st.ClientsLost != 0 {
			t.Fatalf("PS condemned %d connections for corrupt downlink frames", st.ClientsLost)
		}
	}
}
