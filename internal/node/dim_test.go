package node

import (
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"fedms/internal/aggregate"
	"fedms/internal/attack"
	"fedms/internal/nn"
	"fedms/internal/obs"
	"fedms/internal/transport"
)

// truncating is a Byzantine PS that disseminates its honest aggregate
// minus the last coordinate: a well-formed frame carrying a model of
// the wrong dimension.
type truncating struct{}

func (truncating) Name() string      { return "truncating" }
func (truncating) Equivocates() bool { return false }
func (truncating) HistoryDepth() int { return 0 }
func (truncating) Tamper(ctx *attack.Context) []float64 {
	return append([]float64(nil), ctx.TrueAgg[:len(ctx.TrueAgg)-1]...)
}

// runTruncatedFederation runs one client against P = 5 servers whose
// last one truncates every model it sends, and returns the client's
// stats, its registry and its error.
func runTruncatedFederation(t *testing.T, minModels int) ([]ClientRoundStats, *obs.Registry, error) {
	t.Helper()
	const p, rounds = 5, 3
	learners := makeLearners(t, 1, 17)
	servers := make([]*PS, p)
	addrs := make([]string, p)
	for i := 0; i < p; i++ {
		cfg := PSConfig{ID: i, ListenAddr: "127.0.0.1:0", Clients: 1, Rounds: rounds, Seed: 17, Timeout: 10 * time.Second}
		if i == p-1 {
			cfg.Attack = truncating{}
		}
		ps, err := NewPS(cfg)
		if err != nil {
			t.Fatal(err)
		}
		servers[i], addrs[i] = ps, ps.Addr()
	}
	var wg sync.WaitGroup
	for _, ps := range servers {
		wg.Add(1)
		go func(ps *PS) {
			defer wg.Done()
			_ = ps.Serve() // a strict client's exit ends the servers too
		}(ps)
	}
	reg := obs.NewRegistry()
	st, err := RunClient(ClientConfig{
		ID: 0, Learner: learners[0], Servers: addrs, Rounds: rounds, LocalSteps: 1,
		Filter: aggregate.TrimmedMean{Beta: 0.2}, Schedule: nn.ConstantLR(0.3), Seed: 17,
		Timeout: time.Second, MinModels: minModels, Obs: reg,
	})
	if err != nil {
		for _, ps := range servers {
			ps.Crash()
		}
	}
	wg.Wait()
	return st, reg, err
}

// TestClientSkipsWrongDimModel: a Byzantine PS that sends a
// wrong-length model must not crash a benign client. A tolerant client
// skips the model like a malformed frame and degrades to the P' = 4
// models that arrived, still trimming B = 1 per side; a strict client
// fails the round with an error.
func TestClientSkipsWrongDimModel(t *testing.T) {
	st, reg, err := runTruncatedFederation(t, 4)
	if err != nil {
		t.Fatalf("tolerant client: %v", err)
	}
	if len(st) != 3 {
		t.Fatalf("tolerant client finished %d rounds, want 3", len(st))
	}
	for _, r := range st {
		if r.ModelsReceived != 4 || !r.Degraded {
			t.Fatalf("round %d: received %d models (degraded %v), want 4 (degraded)", r.Round, r.ModelsReceived, r.Degraded)
		}
	}
	if n := reg.Counter(`fedms_client_frames_skipped_total{client="0"}`).Value(); n < 3 {
		t.Fatalf("frames_skipped = %d, want ≥ 3 (one truncated model per round)", n)
	}

	if _, _, err := runTruncatedFederation(t, 0); err == nil || !strings.Contains(err.Error(), "dim") {
		t.Fatalf("strict client: err = %v, want a dimension error", err)
	}
}

// TestPSRejectsWrongDimUpload: one client's wrong-length upload must
// not stop a tolerant PS, on the sharded and the unsharded path alike.
// The expected dimension is the PS's seeded model, so the lowest-id
// client cannot redefine it: here client 0 lies and client 1 is
// honest. A tolerant PS skips and counts the bad upload and aggregates
// the rest; a strict PS fails the round.
func TestPSRejectsWrongDimUpload(t *testing.T) {
	good := []float64{1, 2, 0, 0, 3, 4}
	for _, shards := range []int{0, 2} {
		for _, tolerant := range []bool{true, false} {
			reg := obs.NewRegistry()
			p := &PS{cfg: PSConfig{
				ID: 0, Clients: 2, Rounds: 1,
				Tolerant:   tolerant,
				Timeout:    2 * time.Second,
				ServerRule: aggregate.Mean{},
				Shards:     shards,
			}}
			p.om = newPSMetrics(reg, 0, "mean")
			p.v2ok = []bool{true, true}
			p.lastAgg = make([]float64, len(good)) // the clients' hello seed

			conns := make([]*transport.Conn, 2)
			clients := make([]*transport.Conn, 2)
			for i := range conns {
				srv, cli := net.Pipe()
				conns[i], clients[i] = transport.NewConn(srv), transport.NewConn(cli)
				conns[i].Timeout, clients[i].Timeout = 2*time.Second, 30*time.Second
			}
			uploads := [][]float64{good[:len(good)-1], good}
			models := make([][]float64, 2)
			var wg sync.WaitGroup
			for i := range clients {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					c := clients[i]
					if err := c.Send(&transport.Message{Type: transport.TypeUpload, Sender: uint32(i), Flag: 1, Vec: uploads[i]}); err != nil {
						return
					}
					if m, err := c.Recv(); err == nil {
						models[i] = m.Vec
					}
				}(i)
			}
			err := p.serveRound(0, conns, make([]*transport.Message, 2))
			if !tolerant {
				if err == nil || !strings.Contains(err.Error(), "client 0") {
					t.Fatalf("shards=%d strict: err = %v, want a failure naming client 0", shards, err)
				}
				for _, c := range clients {
					_ = c.Close()
				}
				wg.Wait()
				continue
			}
			if err != nil {
				t.Fatalf("shards=%d tolerant: serveRound: %v", shards, err)
			}
			wg.Wait()
			for i, m := range models {
				if len(m) != len(good) {
					t.Fatalf("shards=%d: client %d got a model of dim %d, want %d", shards, i, len(m), len(good))
				}
				for j := range good {
					if math.Float64bits(m[j]) != math.Float64bits(good[j]) {
						t.Fatalf("shards=%d: coord %d = %v, want %v (the honest upload alone)", shards, j, m[j], good[j])
					}
				}
			}
			st := p.Stats()
			if st.UploadsReceived != 1 || st.UploadsMissed != 1 {
				t.Fatalf("shards=%d: received %d missed %d, want 1 and 1", shards, st.UploadsReceived, st.UploadsMissed)
			}
			if n := reg.Counter(`fedms_ps_frames_skipped_total{ps="0"}`).Value(); n != 1 {
				t.Fatalf("shards=%d: frames_skipped = %d, want 1", shards, n)
			}
			path := "fedms_ps_agg_fused_total"
			if shards > 1 {
				path = "fedms_ps_agg_sharded_total"
			}
			if n := reg.Counter(path + `{ps="0"}`).Value(); n != 1 {
				t.Fatalf("shards=%d: %s = %d, want 1", shards, path, n)
			}
		}
	}
}
