package node

import (
	"fmt"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"fedms/internal/aggregate"
	"fedms/internal/compress"
	"fedms/internal/obs"
	"fedms/internal/transport"
)

// pipeConns returns k in-memory PS-side and client-side connection
// pairs. Client reads are generous: race-instrumented parallel package
// runs can starve a test of CPU for seconds at a time.
func pipeConns(k int) (srv, cli []*transport.Conn) {
	for i := 0; i < k; i++ {
		s, c := net.Pipe()
		srv = append(srv, transport.NewConn(s))
		cli = append(cli, transport.NewConn(c))
		srv[i].Timeout, cli[i].Timeout = 10*time.Second, 30*time.Second
	}
	return srv, cli
}

// pipeRound serves one round of p over in-memory connections: client i
// sends frames[i] in order, then reads its global model. It returns the
// model each client received.
func pipeRound(t *testing.T, p *PS, round int, srv, cli []*transport.Conn, pending []*transport.Message, frames [][]*transport.Message) [][]float64 {
	t.Helper()
	models := make([][]float64, len(cli))
	errs := make(chan error, len(cli))
	var wg sync.WaitGroup
	for i, c := range cli {
		wg.Add(1)
		go func(i int, c *transport.Conn) {
			defer wg.Done()
			for _, m := range frames[i] {
				if err := c.Send(m); err != nil {
					errs <- err
					return
				}
			}
			m, err := c.Recv()
			if err != nil {
				errs <- err
				return
			}
			models[i] = m.Vec
		}(i, c)
	}
	if err := p.serveRound(round, srv, pending); err != nil {
		for _, c := range cli {
			_ = c.Close()
		}
		wg.Wait()
		t.Fatalf("round %d: serveRound: %v", round, err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("round %d: client: %v", round, err)
	}
	return models
}

// modelFrame is client's upload of vec trained in round origin, sent in
// round origin+stale (stale > 0 is an async backlog frame).
func modelFrame(client, origin, stale int, vec []float64) *transport.Message {
	enc, data := compress.DenseCodec.AppendEncode(nil, vec)
	return &transport.Message{
		Type: transport.TypeUpload, Round: uint32(origin), Sender: uint32(client),
		Flag: 1, Stale: uint8(stale), Enc: enc, Payload: data,
	}
}

// skipFrame is client's empty round marker.
func skipFrame(client, round int) *transport.Message {
	return &transport.Message{Type: transport.TypeUpload, Round: uint32(round), Sender: uint32(client)}
}

// TestPSAsyncStaleReplayAdmittedOnce is the one-upload-per-client
// regression. Client 0's round-0 model is late; in round 1 it re-sends
// that stale upload `copies` times with a poisoned value, and client 1
// replays its already-admitted round-0 upload stale-tagged. An async
// PS must admit client 0's stale upload once, drop every repeat —
// within the round and across rounds — and aggregate exactly what the
// one-copy run aggregates. Admitting every copy would let one client
// fill the round and drag the trimmed mean to 1000.
func TestPSAsyncStaleReplayAdmittedOnce(t *testing.T) {
	const k, copies = 3, 20
	honest := []float64{1, 1, 1}
	poison := []float64{1000, 1000, 1000}
	run := func(copies int, replay bool) ([]float64, PSStats, *obs.Registry) {
		reg := obs.NewRegistry()
		p, err := NewPS(PSConfig{
			ID: 0, ListenAddr: "127.0.0.1:0", Clients: k, Rounds: 2, Seed: 1,
			ServerRule: aggregate.TrimmedMean{Beta: 0.2}, Tolerant: true,
			Timeout: 10 * time.Second, Async: true, Window: 10 * time.Second, Staleness: 2,
			Obs: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			_ = p.Close()
			_ = p.spill.Close()
		}()
		p.v2ok = make([]bool, k)
		p.lastAgg = append([]float64(nil), honest...)
		srv, cli := pipeConns(k)
		pending := make([]*transport.Message, k)

		pipeRound(t, p, 0, srv, cli, pending, [][]*transport.Message{
			{skipFrame(0, 0)},
			{modelFrame(1, 0, 0, honest)},
			{modelFrame(2, 0, 0, honest)},
		})
		var late, again []*transport.Message
		for i := 0; i < copies; i++ {
			late = append(late, modelFrame(0, 0, 1, poison))
		}
		if replay {
			again = append(again, modelFrame(1, 0, 1, poison))
		}
		models := pipeRound(t, p, 1, srv, cli, pending, [][]*transport.Message{
			append(late, modelFrame(0, 1, 0, honest)),
			append(again, modelFrame(1, 1, 0, honest)),
			{modelFrame(2, 1, 0, honest)},
		})
		return models[0], p.Stats(), reg
	}

	want, once, _ := run(1, false)
	got, st, reg := run(copies, true)
	for j := range want {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("coord %d = %v, want %v: repeated uploads reached the aggregate", j, got[j], want[j])
		}
	}
	if once.UploadsStale != 1 || once.UploadsDropped != 0 {
		t.Fatalf("one-copy run: stale %d dropped %d, want 1 and 0", once.UploadsStale, once.UploadsDropped)
	}
	if st.UploadsReceived != once.UploadsReceived || st.UploadsStale != 1 {
		t.Fatalf("received %d stale %d, want %d and 1", st.UploadsReceived, st.UploadsStale, once.UploadsReceived)
	}
	// copies−1 repeats within round 1, plus client 1's replay of an
	// upload admitted in round 0.
	if st.UploadsDropped != copies {
		t.Fatalf("UploadsDropped = %d, want %d (every repeat)", st.UploadsDropped, copies)
	}
	if n := reg.Counter(`fedms_ps_window_uploads_total{ps="0",result="dropped"}`).Value(); n != int64(st.UploadsDropped) {
		t.Fatalf("window_uploads{dropped} = %d, want UploadsDropped = %d", n, st.UploadsDropped)
	}
}

// TestPSShardPeakGaugeKeepsMax: fedms_ps_shard_peak_bytes is the
// high-water mark PSStats.ShardPeakBytes keeps, so a later round with
// a smaller shard footprint (sparse uploads after dense ones) must not
// lower it.
func TestPSShardPeakGaugeKeepsMax(t *testing.T) {
	const k, dim = 2, 8
	dense := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	sparse := compress.Sparse{Dim: dim, Indices: []uint32{3}, Values: []float64{9}}
	sparseFrame := func(client, round int) *transport.Message {
		return &transport.Message{
			Type: transport.TypeUpload, Round: uint32(round), Sender: uint32(client), Flag: 1,
			Enc: compress.EncSparse, Payload: sparse.AppendEncode(nil),
		}
	}
	newPS := func(reg *obs.Registry) *PS {
		p := &PS{cfg: PSConfig{
			ID: 0, Clients: k, Rounds: 2, Timeout: 10 * time.Second,
			ServerRule: aggregate.Mean{}, Shards: 2,
		}}
		p.om = newPSMetrics(reg, 0, "mean")
		p.v2ok = make([]bool, k)
		p.lastAgg = make([]float64, dim)
		return p
	}
	gauge := func(reg *obs.Registry) int64 { return reg.Gauge(`fedms_ps_shard_peak_bytes{ps="0"}`).Value() }

	// The sparse round alone, for its footprint.
	small := newPS(obs.NewRegistry())
	srv, cli := pipeConns(k)
	pipeRound(t, small, 0, srv, cli, make([]*transport.Message, k), [][]*transport.Message{
		{sparseFrame(0, 0)}, {sparseFrame(1, 0)},
	})

	reg := obs.NewRegistry()
	p := newPS(reg)
	srv, cli = pipeConns(k)
	pending := make([]*transport.Message, k)
	pipeRound(t, p, 0, srv, cli, pending, [][]*transport.Message{
		{modelFrame(0, 0, 0, dense)}, {modelFrame(1, 0, 0, dense)},
	})
	peak := p.Stats().ShardPeakBytes
	if peak <= small.Stats().ShardPeakBytes {
		t.Fatalf("dense round peak %d not above the sparse round's %d; the scenario proves nothing",
			peak, small.Stats().ShardPeakBytes)
	}
	pipeRound(t, p, 1, srv, cli, pending, [][]*transport.Message{
		{sparseFrame(0, 1)}, {sparseFrame(1, 1)},
	})
	if st := p.Stats().ShardPeakBytes; st != peak || gauge(reg) != st {
		t.Fatalf("after a smaller round: ShardPeakBytes %d (want %d), gauge %d (want ShardPeakBytes)", st, peak, gauge(reg))
	}
}

// TestDistributedAsyncWideWindowMatchesSync is the node-tier twin of
// core's TestAsyncWideWindowMatchesSync: with a window at least the
// virtual latency scale no upload is ever late, so an async federation
// must reproduce the sync one bit for bit — the same final models, the
// same admitted uploads and the same wire bytes — on the dense and the
// sparse wire, through the flat and the sharded aggregation alike.
func TestDistributedAsyncWideWindowMatchesSync(t *testing.T) {
	for _, codec := range []string{"dense", "topk:0.5"} {
		for _, shards := range []int{0, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", codec, shards), func(t *testing.T) {
				asyncOpts := asyncChaosOpts(305)
				asyncOpts.latencyScale = asyncOpts.window
				asyncOpts.shards = shards
				if codec != "dense" {
					spec, err := compress.ParseSpec(codec)
					if err != nil {
						t.Fatal(err)
					}
					asyncOpts.upCodec = spec
				}
				syncOpts := asyncOpts
				syncOpts.async, syncOpts.window, syncOpts.staleness, syncOpts.latencyScale = false, 0, 0, 0

				want, syncStats, _ := runChaos(t, syncOpts)
				got, asyncStats, _ := runChaos(t, asyncOpts)
				assertSameParams(t, want, got, "wide-window async vs sync")
				for i, a := range asyncStats {
					s := syncStats[i]
					if s.RoundsServed != syncOpts.rounds || s.UploadsReceived == 0 {
						t.Fatalf("PS %d: sync run served %d rounds with %d uploads", i, s.RoundsServed, s.UploadsReceived)
					}
					if a.UploadsReceived != s.UploadsReceived || a.BytesIn != s.BytesIn {
						t.Fatalf("PS %d: async received %d uploads / %d bytes, sync %d / %d",
							i, a.UploadsReceived, a.BytesIn, s.UploadsReceived, s.BytesIn)
					}
					if a.UploadsStale != 0 || a.UploadsDropped != 0 || a.UploadsDeferred != 0 || a.WindowExpired != 0 {
						t.Fatalf("PS %d: wide window produced late traffic: %+v", i, a)
					}
				}
			})
		}
	}
}
