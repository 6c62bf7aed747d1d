package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending: tail must sort
	}
	return xs
}

func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n, pct int
		value  float64
		beyond int
	}{
		{20, 50, 10, 10},
		{50, 80, 40, 10},
		{99, 89, 89, 10},
		{100, 90, 90, 10},
		{137, 90, 124, 13},
		{1000, 90, 900, 100},
	} {
		got := tail(seq(tc.n))
		if got.Fallback || got.Pct != tc.pct || got.Value != tc.value || got.N != tc.n || got.Beyond != tc.beyond {
			t.Errorf("n=%d: got %+v, want p%d = %v with %d beyond", tc.n, got, tc.pct, tc.value, tc.beyond)
		}
	}
	// For every size, the chosen percentile keeps ≥ 10 samples beyond
	// it, and it is p90 or the next whole percentile would not.
	for n := 2 * tailMinBeyond; n <= 600; n++ {
		got := tail(seq(n))
		if got.Beyond < tailMinBeyond || got.Pct > tailMaxPct {
			t.Fatalf("n=%d: %d beyond p%d", n, got.Beyond, got.Pct)
		}
		if next := (got.Pct + 1) * n; got.Pct < tailMaxPct && n-(next+99)/100 >= tailMinBeyond {
			t.Fatalf("n=%d: p%d also has %d beyond, p%d is not the highest", n, got.Pct+1, n-(next+99)/100, got.Pct)
		}
	}
}

func TestTailFallsBackToMedianForSmallSamples(t *testing.T) {
	got := tail([]float64{5, 1, 3, 2, 4})
	if !got.Fallback || got.Value != 3 || got.N != 5 {
		t.Fatalf("got %+v, want the median 3 flagged as a fallback", got)
	}
	// 19 samples: p47 would have 10 beyond, but it lies below the median.
	if got := tail(seq(19)); !got.Fallback || got.Value != 10 {
		t.Fatalf("n=19: got %+v, want the median 10 flagged as a fallback", got)
	}
	if got := tail(nil); !got.Fallback || got.Value != 0 {
		t.Fatalf("empty sample: got %+v", got)
	}
}

func TestRunTailIsMedianOfBlockTails(t *testing.T) {
	asc := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	// Under two blocks' worth of rounds it is the plain tail.
	for _, n := range []int{5, 100, 199} {
		if got, want := runTail(asc(n)), tail(asc(n)); got != want {
			t.Errorf("n=%d: runTail %+v, tail %+v", n, got, want)
		}
	}
	// 400 ascending rounds: blocks 1–100, …, 301–400 have p90s 90, 190,
	// 290 and 390; the median of those is 240.
	got := runTail(asc(400))
	if got.Value != 240 || got.Pct != 90 || got.Blocks != 4 || got.N != 400 || got.Beyond != 10 {
		t.Fatalf("n=400: got %+v, want p90 median 240 over 4 blocks, 10 beyond", got)
	}
	// One slow block of four leaves the value where the steady blocks
	// put it; the pooled tail moves to the slow value.
	xs := make([]float64, 400)
	for i := range xs {
		xs[i] = 1
		if i >= 100 && i < 200 {
			xs[i] = 50
		}
	}
	if got := runTail(xs); got.Value != 1 {
		t.Fatalf("one slow block moved runTail to %v, want 1", got.Value)
	}
	if got := tail(xs); got.Value != 50 {
		t.Fatalf("pooled tail = %v, want 50", got.Value)
	}
}

func TestMedian(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if m := median(xs); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
	if xs[0] != 4 {
		t.Fatal("median reordered its input")
	}
	if m := median([]float64{7, 1, 3}); m != 3 {
		t.Fatalf("odd median = %v, want 3", m)
	}
}

func TestPerRoundSumsByRoundAndKeepsIdleRounds(t *testing.T) {
	t0 := time.Unix(0, 0)
	sp := func(round int, startMs, endMs int) span {
		return span{round, t0.Add(time.Duration(startMs) * time.Millisecond), t0.Add(time.Duration(endMs) * time.Millisecond)}
	}
	spans := []span{sp(0, 0, 5), sp(1, 10, 12), sp(1, 11, 14), sp(3, 20, 21), sp(4, 30, 40)}
	got := perRound(spans, 1, 4)
	want := []float64{5, 0, 1} // rounds 1, 2 (idle), 3; rounds 0 and 4 out of range
	if len(got) != len(want) {
		t.Fatalf("perRound = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("perRound = %v, want %v", got, want)
		}
	}
	if calls := callMillis(spans, 1, 4); len(calls) != 3 || calls[0] != 2 || calls[1] != 3 {
		t.Fatalf("callMillis = %v, want [2 3 1]", calls)
	}
	if perRound(spans, 3, 3) != nil {
		t.Fatal("empty range must give no rounds")
	}
}

func TestCoveredCountsOverlapOnce(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{0, at(2), at(6)},
		{0, at(4), at(8)},   // overlaps the first
		{0, at(10), at(12)}, // disjoint
		{0, at(15), at(30)}, // clipped at the window's end
		{0, at(-5), at(1)},  // clipped at the window's start
	}
	if got, want := covered(spans, at(0), at(20)), 14*time.Millisecond; got != want {
		t.Fatalf("covered = %v, want %v", got, want)
	}
	if got := covered(nil, at(0), at(20)); got != 0 {
		t.Fatalf("covered(nil) = %v", got)
	}
}

func TestMetricNameGrammar(t *testing.T) {
	for _, ok := range []string{"setup_s", "round_ms.p50", "core.stage.train_ms", "9lives", "a-b.c_d"} {
		if !metricName.MatchString(ok) {
			t.Errorf("%q should be a valid metric name", ok)
		}
	}
	for _, bad := range []string{"", "_x", ".x", "-x", "a b", "a/b", "a:b", "ü", string(make([]byte, 65))} {
		if metricName.MatchString(bad) {
			t.Errorf("%q should be rejected", bad)
		}
	}
	long := "a"
	for len(long) < 64 {
		long += "b"
	}
	if !metricName.MatchString(long) || metricName.MatchString(long+"c") {
		t.Error("names are capped at 64 characters")
	}
}

func TestMetricSetRejectsBadAndDuplicateNames(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	var s metricSet
	s.add("round_ms.p50", 1, "ms", "")
	mustPanic("duplicate", func() { s.add("round_ms.p50", 2, "ms", "") })
	mustPanic("bad name", func() { s.add("round ms", 2, "ms", "") })
	if len(s.list) != 1 {
		t.Fatalf("metric set holds %d metrics, want 1", len(s.list))
	}
}

// TestBenchmarkManifestNames keeps BENCHMARK.json and the metric-name
// grammar in step.
func TestBenchmarkManifestNames(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, group := range [][]struct{ Name string }{b.Workloads, b.EndToEnd, b.PerLayer} {
		for _, m := range group {
			if !metricName.MatchString(m.Name) || seen[m.Name] {
				t.Errorf("bad or duplicate name %q", m.Name)
			}
			seen[m.Name] = true
		}
	}
	for _, w := range b.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json names workload %q, which the benchmark does not define", w.Name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark defines %d", len(b.Workloads), len(workloads))
	}
}
