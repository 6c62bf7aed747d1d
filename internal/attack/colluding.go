package attack

import (
	"fmt"
	"math"

	"fedms/internal/tensor"
)

// ALIE is the "A Little Is Enough" attack (Baruch et al., NeurIPS
// 2019), adapted to Byzantine parameter servers: colluding attackers
// estimate the per-coordinate mean μ and standard deviation σ of the
// benign aggregates and disseminate μ − z·σ — a shift small enough to
// hide inside the benign spread yet consistently biased. It is the
// classic counterexample to defences that only remove large outliers.
type ALIE struct {
	// Z is the shift in benign standard deviations (default 1.0; the
	// original paper computes z from the tail bound of the defence —
	// any z below the trim threshold evades magnitude-based filtering).
	Z float64
}

// Name implements Attack.
func (a ALIE) Name() string { return fmt.Sprintf("alie(z=%g)", a.z()) }

func (a ALIE) z() float64 {
	if a.Z == 0 {
		return 1.0
	}
	return a.Z
}

// Equivocates implements Attack.
func (ALIE) Equivocates() bool { return false }

// HistoryDepth implements Attack.
func (ALIE) HistoryDepth() int { return 0 }

// Tamper implements Attack.
func (a ALIE) Tamper(ctx *Context) []float64 {
	mean, std := benignStats(ctx)
	out := make([]float64, len(mean))
	z := a.z()
	for i := range out {
		out[i] = mean[i] - z*std[i]
	}
	return out
}

// IPM is the inner-product manipulation attack (Xie et al., UAI 2019)
// adapted to model dissemination: the attacker sends the benign mean
// reflected through the previous global model, scaled by ε, so the
// average update's inner product with the true direction turns
// negative once enough servers collude.
type IPM struct {
	// Epsilon scales the reversed update (default 0.5).
	Epsilon float64
}

// Name implements Attack.
func (a IPM) Name() string { return fmt.Sprintf("ipm(eps=%g)", a.eps()) }

func (a IPM) eps() float64 {
	if a.Epsilon == 0 {
		return 0.5
	}
	return a.Epsilon
}

// Equivocates implements Attack.
func (IPM) Equivocates() bool { return false }

// HistoryDepth implements Attack.
func (IPM) HistoryDepth() int { return 1 }

// Tamper implements Attack.
func (a IPM) Tamper(ctx *Context) []float64 {
	mean, _ := benignStats(ctx)
	out := make([]float64, len(mean))
	eps := a.eps()
	if len(ctx.History) == 0 {
		// No previous model: reverse the aggregate itself.
		for i := range out {
			out[i] = -eps * mean[i]
		}
		return out
	}
	prev := ctx.History[len(ctx.History)-1]
	for i := range out {
		update := mean[i] - prev[i]
		out[i] = prev[i] - eps*update
	}
	return out
}

// benignStats returns the per-coordinate mean and standard deviation
// of the benign aggregates visible to the attacker, falling back to
// (own aggregate, zeros) when no collusion channel exists.
func benignStats(ctx *Context) (mean, std []float64) {
	d := len(ctx.TrueAgg)
	mean = make([]float64, d)
	std = make([]float64, d)
	if len(ctx.BenignAggs) == 0 {
		copy(mean, ctx.TrueAgg)
		return mean, std
	}
	tensor.VecMean(mean, ctx.BenignAggs)
	if len(ctx.BenignAggs) > 1 {
		for j := 0; j < d; j++ {
			s := 0.0
			for _, v := range ctx.BenignAggs {
				dd := v[j] - mean[j]
				s += dd * dd
			}
			std[j] = math.Sqrt(s / float64(len(ctx.BenignAggs)))
		}
	}
	return mean, std
}
