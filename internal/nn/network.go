// Package nn implements the single-layer neural networks the paper
// attacks, with the exact activation/loss pairings of its four
// experimental configurations (linear+MSE and softmax+cross-entropy on
// MNIST and CIFAR-10), analytic weight- and input-gradients, and a
// mini-batch SGD trainer. A small multi-layer perceptron is provided for
// the paper's future-work direction (see mlp.go).
package nn

import (
	"errors"
	"fmt"
	"math"

	"xbarsec/internal/dataset"
	"xbarsec/internal/rng"
	"xbarsec/internal/tensor"
)

// Activation selects the output non-linearity f in ŷ = f(Wu).
type Activation int

const (
	// ActLinear is the identity activation used with MSE loss in the
	// paper's "Linear" configurations.
	ActLinear Activation = iota + 1
	// ActSoftmax is the softmax activation used with cross-entropy loss.
	ActSoftmax
	// ActSigmoid is the element-wise logistic activation.
	ActSigmoid
	// ActReLU is the element-wise rectifier.
	ActReLU
)

// String returns the lower-case activation name.
func (a Activation) String() string {
	switch a {
	case ActLinear:
		return "linear"
	case ActSoftmax:
		return "softmax"
	case ActSigmoid:
		return "sigmoid"
	case ActReLU:
		return "relu"
	default:
		return fmt.Sprintf("Activation(%d)", int(a))
	}
}

// Loss selects the training criterion.
type Loss int

const (
	// LossMSE is mean squared error over the output vector.
	LossMSE Loss = iota + 1
	// LossCrossEntropy is categorical cross-entropy; it requires
	// ActSoftmax.
	LossCrossEntropy
)

// String returns the lower-case loss name.
func (l Loss) String() string {
	switch l {
	case LossMSE:
		return "mse"
	case LossCrossEntropy:
		return "crossentropy"
	default:
		return fmt.Sprintf("Loss(%d)", int(l))
	}
}

// ErrBadConfig indicates an unsupported activation/loss combination.
var ErrBadConfig = errors.New("nn: unsupported activation/loss combination")

// Network is a single-layer neural network ŷ = f(Wu) with weight matrix W
// of shape outputs x inputs. It matches Eq. (4) of the paper: no bias term,
// exactly the computation an NVM crossbar performs.
type Network struct {
	// W is the outputs x inputs weight matrix.
	W *tensor.Matrix
	// Act is the output activation f.
	Act Activation
	// Crit is the training loss.
	Crit Loss
}

// NewNetwork creates a zero-initialized network and validates the
// activation/loss pairing.
func NewNetwork(outputs, inputs int, act Activation, crit Loss) (*Network, error) {
	if outputs <= 0 || inputs <= 0 {
		return nil, fmt.Errorf("nn: invalid shape %dx%d", outputs, inputs)
	}
	switch act {
	case ActLinear, ActSoftmax, ActSigmoid, ActReLU:
	default:
		return nil, fmt.Errorf("nn: unknown activation %v: %w", act, ErrBadConfig)
	}
	switch crit {
	case LossMSE:
		if act == ActSoftmax {
			return nil, fmt.Errorf("nn: softmax requires cross-entropy: %w", ErrBadConfig)
		}
	case LossCrossEntropy:
		if act != ActSoftmax {
			return nil, fmt.Errorf("nn: cross-entropy requires softmax: %w", ErrBadConfig)
		}
	default:
		return nil, fmt.Errorf("nn: unknown loss %v: %w", crit, ErrBadConfig)
	}
	return &Network{W: tensor.New(outputs, inputs), Act: act, Crit: crit}, nil
}

// InitXavier fills W with Glorot-uniform values.
func (n *Network) InitXavier(src *rng.Source) {
	limit := math.Sqrt(6 / float64(n.W.Rows()+n.W.Cols()))
	d := n.W.Data()
	for i := range d {
		d[i] = src.Uniform(-limit, limit)
	}
}

// Inputs returns the input dimensionality N.
func (n *Network) Inputs() int { return n.W.Cols() }

// Outputs returns the output dimensionality M.
func (n *Network) Outputs() int { return n.W.Rows() }

// Clone returns a deep copy of the network.
func (n *Network) Clone() *Network {
	return &Network{W: n.W.Clone(), Act: n.Act, Crit: n.Crit}
}

// PreActivation returns s = Wu.
func (n *Network) PreActivation(u []float64) []float64 {
	s := make([]float64, n.W.Rows())
	tensor.MatVecInto(s, n.W, u)
	return s
}

// Forward returns ŷ = f(Wu).
func (n *Network) Forward(u []float64) []float64 {
	return applyActivation(n.Act, n.PreActivation(u))
}

// Predict returns the argmax class of the network output.
func (n *Network) Predict(u []float64) int { return tensor.ArgMax(n.Forward(u)) }

// applyActivation applies f in place to s and returns it.
func applyActivation(act Activation, s []float64) []float64 {
	switch act {
	case ActLinear:
		return s
	case ActSoftmax:
		return softmaxInPlace(s)
	case ActSigmoid:
		for i, v := range s {
			s[i] = 1 / (1 + math.Exp(-v))
		}
		return s
	case ActReLU:
		for i, v := range s {
			if v < 0 {
				s[i] = 0
			}
		}
		return s
	default:
		panic(fmt.Sprintf("nn: unknown activation %v", act))
	}
}

// softmaxInPlace computes a numerically-stable softmax.
func softmaxInPlace(s []float64) []float64 {
	maxv := math.Inf(-1)
	for _, v := range s {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	for i, v := range s {
		e := math.Exp(v - maxv)
		s[i] = e
		sum += e
	}
	for i := range s {
		s[i] /= sum
	}
	return s
}

// LossValue returns the loss of the network on input u with one-hot (or
// regression) target t.
func (n *Network) LossValue(u, target []float64) float64 {
	y := n.Forward(u)
	return lossValue(n.Crit, y, target)
}

func lossValue(crit Loss, y, target []float64) float64 {
	switch crit {
	case LossMSE:
		var s float64
		for i, v := range y {
			d := v - target[i]
			s += d * d
		}
		return s / float64(len(y))
	case LossCrossEntropy:
		const eps = 1e-12
		var s float64
		for i, v := range y {
			if target[i] != 0 {
				s -= target[i] * math.Log(v+eps)
			}
		}
		return s
	default:
		panic(fmt.Sprintf("nn: unknown loss %v", crit))
	}
}

// outputDelta returns δ = ∂L/∂s for the network's activation/loss pair.
// It shares the single activation/loss switch in outputDeltaFromY with
// the batched trainers, so new pairings need exactly one change.
func (n *Network) outputDelta(u, target []float64) (delta, y []float64) {
	y = applyActivation(n.Act, n.PreActivation(u))
	delta = make([]float64, len(y))
	outputDeltaFromY(n.Act, n.Crit, y, target, delta)
	return delta, y
}

// outputDeltaFromY writes δ = ∂L/∂s into delta given the already-activated
// output y, and returns the sample loss. The arithmetic expressions and
// evaluation order match outputDelta + lossValue exactly, so results are
// bit-identical to the per-sample path. For ActReLU the pre-activation
// sign test s > 0 is equivalent to y > 0 (ReLU zeroes exactly the
// non-positive pre-activations), so y alone suffices.
func outputDeltaFromY(act Activation, crit Loss, y, target, delta []float64) float64 {
	switch {
	case act == ActSoftmax && crit == LossCrossEntropy:
		for i, v := range y {
			delta[i] = v - target[i]
		}
	case act == ActLinear && crit == LossMSE:
		alpha := 2 / float64(len(y))
		for i, v := range y {
			delta[i] = alpha * (v - target[i])
		}
	case act == ActSigmoid && crit == LossMSE:
		alpha := 2 / float64(len(y))
		for i, v := range y {
			delta[i] = alpha * (v - target[i]) * v * (1 - v)
		}
	case act == ActReLU && crit == LossMSE:
		alpha := 2 / float64(len(y))
		for i, v := range y {
			if v > 0 {
				delta[i] = alpha * (v - target[i])
			} else {
				delta[i] = 0
			}
		}
	default:
		panic(fmt.Sprintf("nn: unsupported pair %v/%v", act, crit))
	}
	return lossValue(crit, y, target)
}

// outputDeltaInto transforms the pre-activation s into the output y in
// place, writes δ = ∂L/∂s into delta, and returns the sample loss —
// the workspace form of outputDelta used by the batched trainers.
func outputDeltaInto(act Activation, crit Loss, s, target, delta []float64) float64 {
	applyActivation(act, s)
	return outputDeltaFromY(act, crit, s, target, delta)
}

// InputGradient returns ∂L/∂u = Wᵀ δ — Eq. (7) of the paper. This is the
// sensitivity the power side channel tries to approximate.
func (n *Network) InputGradient(u, target []float64) []float64 {
	delta, _ := n.outputDelta(u, target)
	out := make([]float64, n.Inputs())
	tensor.VecMatInto(out, delta, n.W)
	return out
}

// Accuracy returns the top-1 accuracy of the network on ds.
func (n *Network) Accuracy(ds *dataset.Dataset) float64 {
	if ds.Len() == 0 {
		return 0
	}
	correct := 0
	for i := 0; i < ds.Len(); i++ {
		if n.Predict(ds.X.Row(i)) == ds.Labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(ds.Len())
}

// MeanAbsInputGradient returns the per-input mean of |∂L/∂u_j| over ds —
// the left-hand panels of the paper's Figure 3. Gradients run through the
// batched path; the per-sample accumulation order (and hence every bit of
// the result) matches the per-sample loop it replaces.
func (n *Network) MeanAbsInputGradient(ds *dataset.Dataset) []float64 {
	out := make([]float64, n.Inputs())
	if ds.Len() == 0 {
		return out
	}
	g, err := n.InputGradientBatch(ds.X, ds.OneHot())
	if err != nil {
		panic(err) // shapes came from ds itself; mirror per-sample panics
	}
	for i := 0; i < g.Rows(); i++ {
		for j, v := range g.Row(i) {
			out[j] += math.Abs(v)
		}
	}
	inv := 1 / float64(ds.Len())
	for j := range out {
		out[j] *= inv
	}
	return out
}
