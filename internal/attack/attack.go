// Package attack implements the evasion attacks of the paper: the fast
// gradient sign method (Eq. 2) and the power-guided single- and
// multi-pixel attacks of Section III.
package attack

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"xbarsec/internal/nn"
	"xbarsec/internal/rng"
	"xbarsec/internal/tensor"
)

// GradientSource supplies loss gradients with respect to the input — in
// white-box attacks the victim network itself, in black-box attacks a
// trained surrogate.
type GradientSource interface {
	// InputGradient returns ∂L/∂u for input u and one-hot target.
	InputGradient(u, target []float64) []float64
	// Inputs returns the input dimensionality.
	Inputs() int
}

// Compile-time check that the software network satisfies GradientSource.
var _ GradientSource = (*nn.Network)(nil)

// FGSM returns the fast gradient sign perturbation u' = u + ε·sgn(∇uL),
// Eq. (2) of the paper, in a new slice. It neither keeps nor modifies u,
// so callers may pass a row of a shared dataset; g's InputGradient must
// not modify it either (nn.Network's and nn.MLP's do not). The input is
// not clipped, matching the paper's unconstrained attack-strength
// sweeps.
func FGSM(g GradientSource, u, target []float64, eps float64) ([]float64, error) {
	if eps < 0 {
		return nil, fmt.Errorf("attack: negative attack strength %v", eps)
	}
	if len(u) != g.Inputs() {
		return nil, fmt.Errorf("attack: input length %d, want %d", len(u), g.Inputs())
	}
	grad := g.InputGradient(u, target)
	out := tensor.CloneVec(u)
	for j, gj := range grad {
		switch {
		case gj > 0:
			out[j] += eps
		case gj < 0:
			out[j] -= eps
		}
	}
	return out, nil
}

// ErrNeedNorms indicates a power-guided method was invoked without column
// 1-norm information.
var ErrNeedNorms = errors.New("attack: method requires column 1-norm signals")

// ErrNeedGradient indicates the worst-case method was invoked without a
// gradient source.
var ErrNeedGradient = errors.New("attack: method requires a gradient source")

// PixelMethod enumerates the five single-pixel strategies of Figure 4.
type PixelMethod int

const (
	// PixelRandom perturbs a uniformly random pixel with a random sign
	// ("RP" in the paper).
	PixelRandom PixelMethod = iota + 1
	// PixelNormPlus adds the attack strength at the largest-1-norm pixel
	// ("+").
	PixelNormPlus
	// PixelNormMinus subtracts the attack strength at the largest-1-norm
	// pixel ("-").
	PixelNormMinus
	// PixelNormRandom perturbs the largest-1-norm pixel with a random
	// sign ("RD").
	PixelNormRandom
	// PixelWorst perturbs the most loss-sensitive pixel in the gradient
	// direction — the white-box lower bound ("Worst").
	PixelWorst
)

// String returns the paper's legend label for the method.
func (m PixelMethod) String() string {
	switch m {
	case PixelRandom:
		return "RP"
	case PixelNormPlus:
		return "+"
	case PixelNormMinus:
		return "-"
	case PixelNormRandom:
		return "RD"
	case PixelWorst:
		return "Worst"
	default:
		return fmt.Sprintf("PixelMethod(%d)", int(m))
	}
}

// AllPixelMethods lists the five methods in the paper's legend order.
func AllPixelMethods() []PixelMethod {
	return []PixelMethod{PixelRandom, PixelNormPlus, PixelNormMinus, PixelNormRandom, PixelWorst}
}

// MarshalJSON emits the legend label, the form experiment results carry
// on the wire.
func (m PixelMethod) MarshalJSON() ([]byte, error) { return json.Marshal(m.String()) }

// UnmarshalJSON accepts the legend label.
func (m *PixelMethod) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for _, cand := range AllPixelMethods() {
		if cand.String() == s {
			*m = cand
			return nil
		}
	}
	return fmt.Errorf("attack: unknown pixel method %q", s)
}

// SinglePixel perturbs one pixel of u according to the method.
//   - norms: the power-channel column signals (needed by the Norm methods);
//     only their argmax matters, so uncalibrated signals work.
//   - grad: gradient source (needed by PixelWorst).
//   - src: randomness for the random methods.
//
// It returns the perturbed copy of u.
func SinglePixel(method PixelMethod, u, target []float64, eps float64, norms []float64, grad GradientSource, src *rng.Source) ([]float64, error) {
	if eps < 0 {
		return nil, fmt.Errorf("attack: negative attack strength %v", eps)
	}
	out := tensor.CloneVec(u)
	switch method {
	case PixelRandom:
		if src == nil {
			return nil, errors.New("attack: PixelRandom requires a random source")
		}
		j := src.Intn(len(u))
		if src.Bool() {
			out[j] += eps
		} else {
			out[j] -= eps
		}
	case PixelNormPlus, PixelNormMinus, PixelNormRandom:
		if len(norms) != len(u) {
			return nil, fmt.Errorf("attack: got %d norms for %d inputs: %w", len(norms), len(u), ErrNeedNorms)
		}
		j := tensor.ArgMax(norms)
		switch method {
		case PixelNormPlus:
			out[j] += eps
		case PixelNormMinus:
			out[j] -= eps
		default:
			if src == nil {
				return nil, errors.New("attack: PixelNormRandom requires a random source")
			}
			if src.Bool() {
				out[j] += eps
			} else {
				out[j] -= eps
			}
		}
	case PixelWorst:
		if grad == nil {
			return nil, ErrNeedGradient
		}
		g := grad.InputGradient(u, target)
		j := tensor.ArgMax(tensor.AbsVec(g))
		if g[j] >= 0 {
			out[j] += eps
		} else {
			out[j] -= eps
		}
	default:
		return nil, fmt.Errorf("attack: unknown pixel method %v", method)
	}
	return out, nil
}

// MultiPixel perturbs the k pixels with the largest column 1-norms, each
// with an independent random sign — the paper's multi-pixel observation
// that success decays like (1/2)^N. With worst=true (and a gradient
// source) the k most sensitive pixels are instead perturbed in their
// gradient directions, giving the white-box bound.
func MultiPixel(k int, u, target []float64, eps float64, norms []float64, grad GradientSource, worst bool, src *rng.Source) ([]float64, error) {
	if k <= 0 {
		return nil, fmt.Errorf("attack: pixel count %d must be positive", k)
	}
	if eps < 0 {
		return nil, fmt.Errorf("attack: negative attack strength %v", eps)
	}
	out := tensor.CloneVec(u)
	if worst {
		if grad == nil {
			return nil, ErrNeedGradient
		}
		g := grad.InputGradient(u, target)
		for _, j := range tensor.TopK(tensor.AbsVec(g), k) {
			if g[j] >= 0 {
				out[j] += eps
			} else {
				out[j] -= eps
			}
		}
		return out, nil
	}
	if len(norms) != len(u) {
		return nil, fmt.Errorf("attack: got %d norms for %d inputs: %w", len(norms), len(u), ErrNeedNorms)
	}
	if src == nil {
		return nil, errors.New("attack: MultiPixel requires a random source")
	}
	for _, j := range tensor.TopK(norms, k) {
		if src.Bool() {
			out[j] += eps
		} else {
			out[j] -= eps
		}
	}
	return out, nil
}

// Linf returns the ℓ∞ distance between a clean input and its adversarial
// counterpart, the perturbation-budget metric of Eq. (1).
func Linf(clean, adv []float64) float64 {
	var best float64
	for i := range clean {
		if d := math.Abs(clean[i] - adv[i]); d > best {
			best = d
		}
	}
	return best
}
