package attack

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"fedms/internal/randx"
)

func ctx(round int, agg []float64, history [][]float64, seed uint64) *Context {
	return &Context{
		Round:   round,
		Server:  0,
		Client:  0,
		TrueAgg: agg,
		History: history,
		RNG:     randx.New(seed),
	}
}

func TestNonePassthrough(t *testing.T) {
	agg := []float64{1, 2, 3}
	out := None{}.Tamper(ctx(0, agg, nil, 1))
	for i := range agg {
		if out[i] != agg[i] {
			t.Fatalf("None altered the aggregate: %v", out)
		}
	}
	// Must be a copy, not an alias.
	out[0] = 99
	if agg[0] == 99 {
		t.Fatal("None must return a fresh slice")
	}
}

func TestNoiseStatistics(t *testing.T) {
	agg := make([]float64, 20000)
	out := Noise{Sigma: 2}.Tamper(ctx(0, agg, nil, 2))
	var sum, sq float64
	for _, v := range out {
		sum += v
	}
	mean := sum / float64(len(out))
	for _, v := range out {
		d := v - mean
		sq += d * d
	}
	std := math.Sqrt(sq / float64(len(out)))
	if math.Abs(mean) > 0.05 || math.Abs(std-2) > 0.05 {
		t.Fatalf("Noise stats mean=%v std=%v, want 0, 2", mean, std)
	}
}

func TestNoiseDefaultSigma(t *testing.T) {
	if (Noise{}).sigma() != 1 {
		t.Fatal("default sigma should be 1")
	}
	if (Noise{}).Name() != "noise(sigma=1)" {
		t.Fatalf("Name = %s", Noise{}.Name())
	}
}

func TestNoiseDoesNotMutateInput(t *testing.T) {
	agg := []float64{5, 5}
	Noise{}.Tamper(ctx(0, agg, nil, 3))
	if agg[0] != 5 || agg[1] != 5 {
		t.Fatal("Noise mutated TrueAgg")
	}
}

func TestRandomRangeAndIndependence(t *testing.T) {
	agg := make([]float64, 10000)
	out := Random{}.Tamper(ctx(0, agg, nil, 4))
	for _, v := range out {
		if v < -10 || v >= 10 {
			t.Fatalf("Random sample %v outside [-10,10)", v)
		}
	}
	// The output must not depend on the aggregate at all.
	agg2 := make([]float64, 10000)
	for i := range agg2 {
		agg2[i] = 1e6
	}
	out2 := Random{}.Tamper(ctx(0, agg2, nil, 4))
	for i := range out {
		if out[i] != out2[i] {
			t.Fatal("Random must ignore the true aggregate")
		}
	}
}

func TestSafeguardFormula(t *testing.T) {
	prev := []float64{1, 1}
	cur := []float64{2, 3}
	out := Safeguard{}.Tamper(ctx(1, cur, [][]float64{prev}, 5))
	// ã = a − 0.6(a − a_prev) = 2 − 0.6·1 = 1.4 ; 3 − 0.6·2 = 1.8
	if math.Abs(out[0]-1.4) > 1e-12 || math.Abs(out[1]-1.8) > 1e-12 {
		t.Fatalf("Safeguard = %v, want [1.4 1.8]", out)
	}
}

func TestSafeguardFirstRoundNoHistory(t *testing.T) {
	cur := []float64{2, 3}
	out := Safeguard{}.Tamper(ctx(0, cur, nil, 6))
	if out[0] != 2 || out[1] != 3 {
		t.Fatalf("Safeguard without history = %v", out)
	}
}

func TestSafeguardUsesLatestHistory(t *testing.T) {
	hist := [][]float64{{0}, {10}}
	out := Safeguard{Gamma: 1}.Tamper(ctx(2, []float64{20}, hist, 7))
	// ã = 20 − 1·(20 − 10) = 10.
	if out[0] != 10 {
		t.Fatalf("Safeguard = %v, want 10", out[0])
	}
}

func TestBackwardReplaysStaleAggregate(t *testing.T) {
	hist := [][]float64{{1}, {2}, {3}, {4}}
	out := Backward{}.Tamper(ctx(4, []float64{5}, hist, 8))
	// Lag 2: History[len-2] = 3.
	if out[0] != 3 {
		t.Fatalf("Backward = %v, want 3", out[0])
	}
}

func TestBackwardEarlyRounds(t *testing.T) {
	// Round 0: no history at all -> true aggregate.
	out := Backward{}.Tamper(ctx(0, []float64{7}, nil, 9))
	if out[0] != 7 {
		t.Fatalf("Backward round 0 = %v", out[0])
	}
	// Round 1: lag 2 exceeds history -> oldest available.
	out = Backward{}.Tamper(ctx(1, []float64{7}, [][]float64{{42}}, 10))
	if out[0] != 42 {
		t.Fatalf("Backward round 1 = %v", out[0])
	}
}

func TestBackwardCustomLag(t *testing.T) {
	hist := [][]float64{{1}, {2}, {3}, {4}}
	out := Backward{Lag: 3}.Tamper(ctx(4, []float64{5}, hist, 11))
	if out[0] != 2 {
		t.Fatalf("Backward lag 3 = %v, want 2", out[0])
	}
}

func TestSignFlip(t *testing.T) {
	out := SignFlip{Scale: 2}.Tamper(ctx(0, []float64{1, -3}, nil, 12))
	if out[0] != -2 || out[1] != 6 {
		t.Fatalf("SignFlip = %v", out)
	}
}

func TestZero(t *testing.T) {
	out := Zero{}.Tamper(ctx(0, []float64{1, 2}, nil, 13))
	if out[0] != 0 || out[1] != 0 {
		t.Fatalf("Zero = %v", out)
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"none", "noise", "random", "safeguard", "backward", "signflip", "zero"} {
		a, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if a == nil {
			t.Fatalf("ByName(%q) returned nil", name)
		}
	}
	if _, err := ByName("bogus"); err == nil {
		t.Fatal("ByName must reject unknown attacks")
	}
}

func TestEquivocationFlags(t *testing.T) {
	if (Noise{}).Equivocates() || (Random{}).Equivocates() {
		t.Fatal("default attacks are consistent")
	}
	if !(Noise{PerClient: true}).Equivocates() || !(Random{PerClient: true}).Equivocates() {
		t.Fatal("PerClient attacks must equivocate")
	}
}

func TestDeterministicGivenRNG(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		agg := []float64{0.5, -0.5, 1.5}
		a := Noise{}.Tamper(ctx(3, agg, nil, seed))
		b := Noise{}.Tamper(ctx(3, agg, nil, seed))
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 20})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAttacksNeverMutateState is the shared contract: TrueAgg and
// History must be left untouched by every attack.
func TestAttacksNeverMutateState(t *testing.T) {
	attacks := []Attack{None{}, Noise{}, Random{}, Safeguard{}, Backward{}, SignFlip{}, Zero{}}
	agg := []float64{1, 2, 3}
	hist := [][]float64{{0, 0, 0}, {0.5, 0.5, 0.5}}
	for _, a := range attacks {
		c := ctx(2, append([]float64(nil), agg...), [][]float64{
			append([]float64(nil), hist[0]...),
			append([]float64(nil), hist[1]...),
		}, 99)
		a.Tamper(c)
		for i := range agg {
			if c.TrueAgg[i] != agg[i] {
				t.Fatalf("%s mutated TrueAgg", a.Name())
			}
		}
		for r := range hist {
			for i := range hist[r] {
				if c.History[r][i] != hist[r][i] {
					t.Fatalf("%s mutated History", a.Name())
				}
			}
		}
	}
}

func TestAppendHistoryKeepsNewest(t *testing.T) {
	var h [][]float64
	for r := 0; r < 6; r++ {
		h = AppendHistory(h, []float64{float64(r)}, 3)
	}
	if want := [][]float64{{3}, {4}, {5}}; !reflect.DeepEqual(h, want) {
		t.Fatalf("history %v, want %v", h, want)
	}
	if h = AppendHistory(h, []float64{6}, 0); h != nil {
		t.Fatalf("depth 0 kept %v", h)
	}
}
