package main

import (
	"runtime"
	"sync"
	"time"

	"fedms/internal/attack"
	"fedms/internal/compress"
	"fedms/internal/core"
	"fedms/internal/nn"
)

// learnerProbe wraps a core.Learner to time the calls the round makes
// into the nn layer. A round ends with the client's SetParams call (the
// filtered model being installed), so the probe keeps its own round
// index: calls made before the k-th SetParams belong to round k.
//
// Every probe records round-end times and the first LocalTrain time —
// the loopback workload's round clock. With spans set it also records
// every call as a span and keeps the round's upload (the Params result)
// and installed model for replay.
//
// A learner's calls never overlap in time (the engine and the client
// loop call one learner from one goroutine at a time, with a
// happens-before edge between stages), so the probe needs no lock; the
// benchmark reads it only after the round or the client has returned.
type learnerProbe struct {
	inner core.Learner
	spans bool
	// memAt, when positive, makes the probe snapshot TotalAlloc right
	// after installing the model of rounds 0 and memAt-1 (the loopback
	// workload's timed-round allocation window).
	memAt int

	round      int
	firstTrain time.Time
	roundEnd   []time.Time
	allocStart uint64
	allocEnd   uint64

	train, params, setParams []span
	upload                   []float64 // this round's Params result
	installed                []float64 // copy of this round's SetParams input
}

func newLearnerProbe(inner core.Learner, spans bool) *learnerProbe {
	return &learnerProbe{inner: inner, spans: spans}
}

func (l *learnerProbe) NumParams() int { return l.inner.NumParams() }

func (l *learnerProbe) Params() []float64 {
	start := time.Now()
	p := l.inner.Params()
	if l.spans {
		l.params = append(l.params, span{l.round, start, time.Now()})
		l.upload = p
	}
	return p
}

func (l *learnerProbe) SetParams(flat []float64) {
	start := time.Now()
	l.inner.SetParams(flat)
	end := time.Now()
	if l.spans {
		l.setParams = append(l.setParams, span{l.round, start, end})
		l.installed = append(l.installed[:0], flat...)
	}
	l.roundEnd = append(l.roundEnd, end)
	if l.memAt > 0 && (l.round == 0 || l.round == l.memAt-1) {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		if l.round == 0 {
			l.allocStart = m.TotalAlloc
		} else {
			l.allocEnd = m.TotalAlloc
		}
	}
	l.round++
}

func (l *learnerProbe) LocalTrain(steps, globalStep int, sched nn.Schedule) float64 {
	start := time.Now()
	loss := l.inner.LocalTrain(steps, globalStep, sched)
	if l.firstTrain.IsZero() {
		l.firstTrain = start
	}
	if l.spans {
		l.train = append(l.train, span{l.round, start, time.Now()})
	}
	return loss
}

func (l *learnerProbe) Evaluate() (loss, acc float64) { return l.inner.Evaluate() }

// SetWorkers and Workers forward the worker budget. The engine hands
// each learner its share of the pool only through these two methods;
// without them a wrapped learner would train at a different GEMM
// parallelism than the bare one. Every learner fedms.BuildEngine builds
// is a *core.NNLearner.
func (l *learnerProbe) SetWorkers(w int) { l.inner.(*core.NNLearner).SetWorkers(w) }

func (l *learnerProbe) Workers() int { return l.inner.(*core.NNLearner).Workers() }

// tamperKey identifies one tampered model: its server and destination
// client (-1 for a consistent attack's shared model).
type tamperKey struct{ server, client int }

// attackProbe wraps an attack.Attack to time Tamper and keep the models
// it returns for the filter replay. Tamper runs concurrently from the
// engine's filter pool, so the probe locks.
type attackProbe struct {
	attack.Attack
	keep bool

	mu    sync.Mutex
	spans []span
	out   map[tamperKey][]float64 // current round only; see take
}

func (a *attackProbe) Tamper(ctx *attack.Context) []float64 {
	start := time.Now()
	v := a.Attack.Tamper(ctx)
	end := time.Now()
	a.mu.Lock()
	a.spans = append(a.spans, span{ctx.Round, start, end})
	if a.keep {
		if a.out == nil {
			a.out = make(map[tamperKey][]float64)
		}
		a.out[tamperKey{ctx.Server, ctx.Client}] = v
	}
	a.mu.Unlock()
	return v
}

// take returns and clears the models tampered since the last call.
func (a *attackProbe) take() map[tamperKey][]float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := a.out
	a.out = nil
	return out
}

// encoded is one captured upload payload.
type encoded struct {
	enc  compress.Encoding
	data []byte
}

// codecProbe wraps a client's upload codec to time AppendEncode and
// keep a copy of every payload for the server-aggregation replay. The
// node client encodes exactly once per active round.
type codecProbe struct {
	compress.Codec
	spans []span
	out   []encoded // index = round
}

func (c *codecProbe) AppendEncode(dst []byte, v []float64) (compress.Encoding, []byte) {
	start := time.Now()
	enc, buf := c.Codec.AppendEncode(dst, v)
	end := time.Now()
	round := len(c.out)
	c.spans = append(c.spans, span{round, start, end})
	c.out = append(c.out, encoded{enc, append([]byte(nil), buf[len(dst):]...)})
	return enc, buf
}
