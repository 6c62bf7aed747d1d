package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"fedms/internal/aggregate"
	"fedms/internal/attack"
	"fedms/internal/compress"
)

// TestEngineParallelEncodeBitIdentical pins the concurrent upload
// encode: one worker against four, every lossy codec family (stateful
// error feedback, seeded random-k, quantization) in both lifecycles,
// must give identical parameters and identical upload and spill byte
// counts. Under -race it also checks that the encodes share no state.
func TestEngineParallelEncodeBitIdentical(t *testing.T) {
	for _, spec := range []string{"ef+topk:0.1", "topk:0.05", "randk:0.2", "q8"} {
		for _, async := range []bool{false, true} {
			name := fmt.Sprintf("%s/async=%v", spec, async)
			run := func(workers int) ([]RoundStats, [][]float64) {
				cfg := baseConfig(8, 4, 1, attack.Noise{PerClient: true}, aggregate.TrimmedMean{Beta: 0.25})
				if async {
					cfg = asyncConfig(8, 4, 1, aggregate.TrimmedMean{Beta: 0.25})
				}
				cfg.Rounds = 5
				cfg.EvalEvery = -1
				cfg.Workers = workers
				var err error
				if cfg.UploadCodec, err = compress.ParseSpec(spec); err != nil {
					t.Fatal(err)
				}
				return runAsync(t, cfg)
			}
			serialStats, serial := run(1)
			parallelStats, parallel := run(4)
			assertSameParams(t, name, parallel, serial)
			for r := range serialStats {
				s, p := serialStats[r], parallelStats[r]
				if s.UploadBytes != p.UploadBytes || s.SpillBytes != p.SpillBytes {
					t.Fatalf("%s round %d: upload/spill bytes %d/%d with 4 workers, %d/%d with 1",
						name, r, p.UploadBytes, p.SpillBytes, s.UploadBytes, s.SpillBytes)
				}
			}
		}
	}
}

// fullHistory forwards an attack but asks the runtime to retain every
// honest aggregate, the behaviour before history depths existed.
type fullHistory struct{ attack.Attack }

func (fullHistory) HistoryDepth() int { return math.MaxInt }

// historyAttacks covers every history depth the roster declares: lags
// above and below the default, the one-round readers and the
// history-free attacks.
func historyAttacks() []attack.Attack {
	return []attack.Attack{
		attack.Backward{Lag: 1}, attack.Backward{Lag: 2}, attack.Backward{Lag: 3}, attack.Backward{Lag: 4},
		attack.Safeguard{}, attack.IPM{}, attack.Noise{}, attack.ALIE{},
	}
}

// TestAttackHistoryWindowBitIdentical checks that each attack's
// declared HistoryDepth covers what it reads: retaining only that
// window gives bit-identical final models to retaining every round.
// Clients filter with the plain mean, so every tampered value reaches
// the models; a trimming filter could hide a wrong history entry
// whenever it keeps the same rank.
func TestAttackHistoryWindowBitIdentical(t *testing.T) {
	for _, atk := range historyAttacks() {
		run := func(a attack.Attack) [][]float64 {
			learners, _ := testFixture(t, 8, 21)
			cfg := baseConfig(8, 5, 2, a, aggregate.Mean{})
			cfg.Rounds = 8
			cfg.EvalEvery = -1
			e, err := NewEngine(cfg, learners)
			if err != nil {
				t.Fatal(err)
			}
			e.Run()
			params := make([][]float64, len(learners))
			for i, l := range learners {
				params[i] = l.Params()
			}
			return params
		}
		assertSameParams(t, atk.Name(), run(atk), run(fullHistory{atk}))
	}
}

// TestEngineHistoryBounded checks that after 10 rounds every Byzantine
// server retains exactly its attack's depth of history (none under
// Noise), that benign servers retain none, and that the retained
// entries are the newest aggregates, oldest first.
func TestEngineHistoryBounded(t *testing.T) {
	const rounds = 10
	for _, atk := range historyAttacks() {
		learners, _ := testFixture(t, 6, 22)
		cfg := baseConfig(6, 5, 2, atk, aggregate.TrimmedMean{Beta: 0.4})
		cfg.Rounds = rounds
		cfg.EvalEvery = -1
		fullCfg := cfg
		fullCfg.Attack = fullHistory{atk}
		full, err := NewEngine(fullCfg, learners)
		if err != nil {
			t.Fatal(err)
		}
		full.Run()

		learners, _ = testFixture(t, 6, 22)
		e, err := NewEngine(cfg, learners)
		if err != nil {
			t.Fatal(err)
		}
		e.Run()
		want := min(atk.HistoryDepth(), rounds)
		for i, h := range e.history {
			if !e.cfg.IsByzantine(i) {
				if len(h) != 0 {
					t.Fatalf("%s: benign server %d retains %d aggregates", atk.Name(), i, len(h))
				}
				continue
			}
			if len(h) != want {
				t.Fatalf("%s: Byzantine server %d retains %d aggregates, want %d", atk.Name(), i, len(h), want)
			}
			if tail := full.history[i][rounds-want:]; want > 0 && !reflect.DeepEqual(h, tail) {
				t.Fatalf("%s: server %d history is not the newest %d aggregates", atk.Name(), i, want)
			}
		}
	}
}
