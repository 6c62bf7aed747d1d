package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"regexp"
	"sort"
	"time"

	"fedms/internal/core"
)

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for an empty slice. xs is not
// modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailStat is the tail summary of a timing sample: the highest whole
// percentile, at most tailMaxPct, that still has at least tailMinBeyond
// samples above its nearest-rank value.
type tailStat struct {
	Value float64
	// Pct is the reported percentile (0–100).
	Pct int
	// N is the sample count, Beyond the samples ranked above Value.
	N, Beyond int
	// Fallback marks a sample too small for that percentile to reach
	// the median (N < 2·tailMinBeyond); Value is then the median.
	Fallback bool
	// Blocks is how many blocks of consecutive samples runTail took
	// the median over (0 for a plain tail). Beyond is then the fewest
	// samples beyond the percentile in any block.
	Blocks int
}

// tailMinBeyond is how many samples must lie beyond a percentile for it
// to count as measured.
const tailMinBeyond = 10

// tailMaxPct caps the reported percentile. On a shared 2-vCPU host the
// p97 of ~420 loopback rounds spread 10.7% of its median across eight
// runs of the same code, the p90 6.2%: percentiles beyond p90 track the
// host's bursts more than the program.
const tailMaxPct = 90

// tail picks the highest whole percentile p ≤ tailMaxPct whose
// nearest-rank value ceil(p·n/100) leaves at least tailMinBeyond
// samples ranked beyond it. A "tail" below the median says nothing, so
// a sample that small reports the median, flagged.
func tail(xs []float64) tailStat {
	n := len(xs)
	if n < 2*tailMinBeyond {
		return tailStat{Value: median(xs), Pct: 50, N: n, Beyond: n / 2, Fallback: true}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pct := min(100*(n-tailMinBeyond)/n, tailMaxPct)
	rank := (pct*n + 99) / 100 // ceil(pct·n/100), 1-based
	return tailStat{Value: s[rank-1], Pct: pct, N: n, Beyond: n - rank}
}

// tailBlockLen is the shortest block whose tailMaxPct percentile has
// tailMinBeyond samples beyond it.
const tailBlockLen = tailMinBeyond * 100 / (100 - tailMaxPct)

// runTail is the tail of a run's rounds, given in the order they ran:
// it splits them into blocks of at least tailBlockLen consecutive
// rounds, takes each block's tail and reports the median over the
// blocks. Host load that slows less than half of the run's blocks
// leaves it unchanged, where it would move a percentile of the pooled
// sample. Fewer than two blocks' worth of rounds gives tail(xs).
func runTail(xs []float64) tailStat {
	n := len(xs)
	b := n / tailBlockLen
	if b < 2 {
		return tail(xs)
	}
	vals := make([]float64, b)
	out := tailStat{N: n, Beyond: n, Blocks: b}
	for i := range vals {
		t := tail(xs[i*n/b : (i+1)*n/b])
		vals[i], out.Pct, out.Beyond = t.Value, t.Pct, min(out.Beyond, t.Beyond)
	}
	out.Value = median(vals)
	return out
}

// String renders the percentile and its sample counts.
func (t tailStat) String() string {
	if t.Fallback {
		return fmt.Sprintf("p50 fallback: with n=%d no percentile at or above the median has %d samples beyond it", t.N, tailMinBeyond)
	}
	if t.Blocks > 0 {
		return fmt.Sprintf("p%d of each of %d blocks of consecutive rounds, median over blocks, n=%d, ≥%d beyond per block", t.Pct, t.Blocks, t.N, t.Beyond)
	}
	return fmt.Sprintf("p%d, n=%d, %d beyond", t.Pct, t.N, t.Beyond)
}

// span is one timed call into a layer, tagged with the round it ran in.
type span struct {
	round      int
	start, end time.Time
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// perRound sums span durations (in ms) by round over rounds [from, to).
// Rounds without a span contribute 0, so the result always has to-from
// entries and a median over it counts idle rounds.
func perRound(spans []span, from, to int) []float64 {
	if to <= from {
		return nil
	}
	out := make([]float64, to-from)
	for _, s := range spans {
		if s.round >= from && s.round < to {
			out[s.round-from] += ms(s.dur())
		}
	}
	return out
}

// callMillis returns each span's duration in ms for rounds [from, to).
func callMillis(spans []span, from, to int) []float64 {
	var out []float64
	for _, s := range spans {
		if s.round >= from && s.round < to {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// covered returns how much of [lo, hi) the union of spans covers.
func covered(spans []span, lo, hi time.Time) time.Duration {
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(spans))
	for _, s := range spans {
		a, b := s.start, s.end
		if a.Before(lo) {
			a = lo
		}
		if b.After(hi) {
			b = hi
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var curA, curB time.Time
	for i, v := range ivs {
		switch {
		case i == 0:
			curA, curB = v.a, v.b
		case v.a.After(curB):
			total += curB.Sub(curA)
			curA, curB = v.a, v.b
		case v.b.After(curB):
			curB = v.b
		}
	}
	if len(ivs) > 0 {
		total += curB.Sub(curA)
	}
	return total
}

// digest hashes every learner's flat parameters bit for bit, in client
// order. Two runs agree on it only if every client model is identical.
func digest(learners []core.Learner) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, l := range learners {
		for _, x := range l.Params() {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// metricName is the grammar every reported metric name follows: a
// letter or digit first, then letters, digits, '_', '.' and '-', at
// most 64 characters.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// metric is one reported value with its unit and how it was obtained
// (see README.md, "Per-layer metrics").
type metric struct {
	Name  string
	Value float64
	Unit  string
	How   string
}

// metricSet is an ordered list of metrics that rejects malformed or
// duplicate names, so a typo fails the run instead of silently adding
// a new series.
type metricSet struct {
	list []metric
	seen map[string]bool
}

func (s *metricSet) add(name string, value float64, unit, how string) {
	if !metricName.MatchString(name) {
		panic(fmt.Sprintf("roundbench: bad metric name %q", name))
	}
	if s.seen == nil {
		s.seen = make(map[string]bool)
	}
	if s.seen[name] {
		panic(fmt.Sprintf("roundbench: duplicate metric %q", name))
	}
	s.seen[name] = true
	s.list = append(s.list, metric{Name: name, Value: value, Unit: unit, How: how})
}
