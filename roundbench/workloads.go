package main

import (
	"fedms"
	"fedms/internal/attack"
	"fedms/internal/sched"
)

// workload is one benchmark input: a Fed-MS configuration and the
// runtime that executes it. The seed is the only input that varies
// between runs of a workload.
type workload struct {
	name string
	// loopback runs the distributed runtime over 127.0.0.1 TCP instead
	// of the in-process engine; config is then also the engine
	// reference the federation must match bit for bit.
	loopback bool
	config   func(seed uint64) fedms.Config
}

// openRounds is the engine's round horizon for time-boxed runs; no run
// reaches it.
const openRounds = 1 << 20

// blobs is the paper's Fig. 2 dataset: 10k Gaussian-mixture samples,
// 10 classes, Dirichlet(10) split. Every field is explicit so the
// data-layer replay generates exactly what BuildEngine does.
var blobs = fedms.DatasetSpec{
	Kind: fedms.DatasetBlobs, Samples: 10000, NumClasses: 10, Features: 32,
	Alpha: 10, TrainFrac: 0.8,
}

// equivocatingNoise sends independently drawn Gaussian noise to every
// client: the paper's worst-case Noise attack.
var equivocatingNoise = attack.Noise{PerClient: true}

func engineConfig(seed uint64, clients, steps int, hidden []int) fedms.Config {
	return fedms.Config{
		Clients: clients, Servers: 10, NumByzantine: 2,
		Rounds: openRounds, LocalSteps: steps, TrimBeta: 0.2, LearningRate: 0.1,
		Attack:  equivocatingNoise,
		Dataset: blobs,
		Model:   fedms.ModelSpec{Kind: fedms.ModelMLP, Hidden: hidden},
		Seed:    seed,
		// Evaluation runs once after the timed rounds, outside them.
		EvalEvery: -1,
	}
}

var workloads = []workload{
	{name: "sim-paper", config: func(seed uint64) fedms.Config {
		return engineConfig(seed, 50, 3, []int{64})
	}},
	{name: "sim-wide", config: func(seed uint64) fedms.Config {
		c := engineConfig(seed, 20, 1, []int{1024, 64})
		c.UploadCodec = "ef+topk:0.1"
		return c
	}},
	{name: "sim-async", config: func(seed uint64) fedms.Config {
		c := engineConfig(seed, 50, 1, []int{256})
		c.Async, c.Window, c.Staleness = true, sched.DefaultLatencyScale/4, 2
		return c
	}},
	{name: "loopback", loopback: true, config: func(seed uint64) fedms.Config {
		c := engineConfig(seed, 2, 1, []int{1024, 64})
		c.Servers, c.NumByzantine, c.ByzantineIDs = 3, 1, []int{0}
		c.TrimBeta = 0 // B/P
		c.Rounds = loopbackRounds
		c.UploadCodec = "q8"
		return c
	}},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
