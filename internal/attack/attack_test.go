package attack

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"xbarsec/internal/nn"
	"xbarsec/internal/rng"
	"xbarsec/internal/tensor"
)

func trainedNet(t *testing.T, seed int64, act nn.Activation, crit nn.Loss, out, in int) *nn.Network {
	t.Helper()
	n, err := nn.NewNetwork(out, in, act, crit)
	if err != nil {
		t.Fatal(err)
	}
	n.InitXavier(rng.New(seed))
	return n
}

func TestFGSMIncreasesLoss(t *testing.T) {
	f := func(seed int64) bool {
		src := rng.New(seed)
		n := trainedNet(t, seed, nn.ActSoftmax, nn.LossCrossEntropy, 5, 12)
		u := src.UniformVec(12, 0, 1)
		target := make([]float64, 5)
		target[src.Intn(5)] = 1
		adv, err := FGSM(n, u, target, 0.1)
		if err != nil {
			return false
		}
		// FGSM takes the first-order ascent direction; for small eps the
		// loss must not decrease.
		return n.LossValue(adv, target) >= n.LossValue(u, target)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestFGSMPerturbationIsEpsSigned(t *testing.T) {
	src := rng.New(4)
	n := trainedNet(t, 4, nn.ActLinear, nn.LossMSE, 3, 8)
	u := src.UniformVec(8, 0, 1)
	target := []float64{1, 0, 0}
	const eps = 0.25
	adv, err := FGSM(n, u, target, eps)
	if err != nil {
		t.Fatal(err)
	}
	g := n.InputGradient(u, target)
	for j := range u {
		d := adv[j] - u[j]
		switch {
		case g[j] > 0 && math.Abs(d-eps) > 1e-12:
			t.Fatalf("pixel %d: d=%v, want +eps", j, d)
		case g[j] < 0 && math.Abs(d+eps) > 1e-12:
			t.Fatalf("pixel %d: d=%v, want -eps", j, d)
		case g[j] == 0 && d != 0:
			t.Fatalf("pixel %d: zero gradient perturbed", j)
		}
	}
	if got := Linf(u, adv); math.Abs(got-eps) > 1e-12 {
		t.Fatalf("Linf = %v, want %v", got, eps)
	}
}

func TestFGSMValidation(t *testing.T) {
	n := trainedNet(t, 1, nn.ActLinear, nn.LossMSE, 2, 4)
	if _, err := FGSM(n, []float64{1, 2, 3, 4}, []float64{1, 0}, -1); err == nil {
		t.Fatal("negative eps must error")
	}
	if _, err := FGSM(n, []float64{1}, []float64{1, 0}, 0.1); err == nil {
		t.Fatal("bad input length must error")
	}
}

func TestPixelMethodStrings(t *testing.T) {
	want := map[PixelMethod]string{
		PixelRandom: "RP", PixelNormPlus: "+", PixelNormMinus: "-",
		PixelNormRandom: "RD", PixelWorst: "Worst",
	}
	for m, s := range want {
		if m.String() != s {
			t.Fatalf("%d.String() = %q, want %q", m, m.String(), s)
		}
	}
	if len(AllPixelMethods()) != 5 {
		t.Fatal("AllPixelMethods must list 5 methods")
	}
}

func TestSinglePixelNormMethods(t *testing.T) {
	u := []float64{0.5, 0.5, 0.5, 0.5}
	norms := []float64{1, 9, 2, 3}
	const eps = 2.0
	plus, err := SinglePixel(PixelNormPlus, u, nil, eps, norms, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plus[1] != 2.5 {
		t.Fatalf("+ method: %v", plus)
	}
	minus, err := SinglePixel(PixelNormMinus, u, nil, eps, norms, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if minus[1] != -1.5 {
		t.Fatalf("- method: %v", minus)
	}
	rd, err := SinglePixel(PixelNormRandom, u, nil, eps, norms, nil, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rd[1]-0.5) != eps {
		t.Fatalf("RD method must move pixel 1 by ±eps: %v", rd)
	}
	// Only the argmax pixel moves.
	for j := range u {
		if j == 1 {
			continue
		}
		if plus[j] != u[j] || minus[j] != u[j] || rd[j] != u[j] {
			t.Fatal("non-target pixels must be unchanged")
		}
	}
}

func TestSinglePixelRandomMovesOnePixel(t *testing.T) {
	u := make([]float64, 30)
	adv, err := SinglePixel(PixelRandom, u, nil, 1.5, nil, nil, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	changed := 0
	for j := range u {
		if adv[j] != u[j] {
			changed++
			if math.Abs(adv[j]-u[j]) != 1.5 {
				t.Fatalf("wrong magnitude at %d", j)
			}
		}
	}
	if changed != 1 {
		t.Fatalf("changed %d pixels, want 1", changed)
	}
}

func TestSinglePixelWorstUsesGradient(t *testing.T) {
	n := trainedNet(t, 9, nn.ActLinear, nn.LossMSE, 3, 6)
	src := rng.New(9)
	u := src.UniformVec(6, 0, 1)
	target := []float64{1, 0, 0}
	adv, err := SinglePixel(PixelWorst, u, target, 0.7, nil, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	g := n.InputGradient(u, target)
	jstar := tensor.ArgMax(tensor.AbsVec(g))
	moved := -1
	for j := range u {
		if adv[j] != u[j] {
			moved = j
		}
	}
	if moved != jstar {
		t.Fatalf("worst moved pixel %d, want %d", moved, jstar)
	}
	// Direction must match the gradient sign (loss ascent).
	if (adv[jstar]-u[jstar] > 0) != (g[jstar] >= 0) {
		t.Fatal("worst must move in the gradient direction")
	}
	if n.LossValue(adv, target) < n.LossValue(u, target) {
		t.Fatal("worst-case attack decreased the loss")
	}
}

func TestSinglePixelErrors(t *testing.T) {
	u := []float64{1, 2}
	if _, err := SinglePixel(PixelNormPlus, u, nil, 1, []float64{1}, nil, nil); !errors.Is(err, ErrNeedNorms) {
		t.Fatalf("want ErrNeedNorms, got %v", err)
	}
	if _, err := SinglePixel(PixelWorst, u, nil, 1, nil, nil, nil); !errors.Is(err, ErrNeedGradient) {
		t.Fatalf("want ErrNeedGradient, got %v", err)
	}
	if _, err := SinglePixel(PixelRandom, u, nil, 1, nil, nil, nil); err == nil {
		t.Fatal("RP without src must error")
	}
	if _, err := SinglePixel(PixelNormRandom, u, nil, 1, []float64{1, 2}, nil, nil); err == nil {
		t.Fatal("RD without src must error")
	}
	if _, err := SinglePixel(PixelMethod(0), u, nil, 1, nil, nil, nil); err == nil {
		t.Fatal("unknown method must error")
	}
	if _, err := SinglePixel(PixelRandom, u, nil, -1, nil, nil, rng.New(1)); err == nil {
		t.Fatal("negative eps must error")
	}
}

func TestMultiPixelTopK(t *testing.T) {
	u := make([]float64, 6)
	norms := []float64{5, 1, 9, 2, 8, 0}
	adv, err := MultiPixel(3, u, nil, 1, norms, nil, false, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	wantMoved := map[int]bool{0: true, 2: true, 4: true}
	for j := range u {
		moved := adv[j] != u[j]
		if moved != wantMoved[j] {
			t.Fatalf("pixel %d moved=%v, want %v", j, moved, wantMoved[j])
		}
		if moved && math.Abs(adv[j]) != 1 {
			t.Fatalf("pixel %d magnitude %v", j, adv[j])
		}
	}
}

func TestMultiPixelWorstIncreasesLossMoreThanRandomSigns(t *testing.T) {
	n := trainedNet(t, 11, nn.ActLinear, nn.LossMSE, 4, 20)
	src := rng.New(11)
	u := src.UniformVec(20, 0, 1)
	target := make([]float64, 4)
	target[0] = 1
	worst, err := MultiPixel(5, u, target, 0.5, nil, n, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	norms := make([]float64, 20)
	g := n.InputGradient(u, target)
	for j := range norms {
		norms[j] = math.Abs(g[j]) // same pixel selection, random signs
	}
	rnd, err := MultiPixel(5, u, target, 0.5, norms, nil, false, src)
	if err != nil {
		t.Fatal(err)
	}
	if n.LossValue(worst, target) < n.LossValue(rnd, target)-1e-9 {
		t.Fatal("gradient-signed multi-pixel must dominate random signs on the same pixels")
	}
}

func TestMultiPixelValidation(t *testing.T) {
	u := []float64{1, 2}
	if _, err := MultiPixel(0, u, nil, 1, []float64{1, 2}, nil, false, rng.New(1)); err == nil {
		t.Fatal("k=0 must error")
	}
	if _, err := MultiPixel(1, u, nil, 1, []float64{1}, nil, false, rng.New(1)); !errors.Is(err, ErrNeedNorms) {
		t.Fatal("want ErrNeedNorms")
	}
	if _, err := MultiPixel(1, u, nil, 1, nil, nil, true, nil); !errors.Is(err, ErrNeedGradient) {
		t.Fatal("want ErrNeedGradient")
	}
	if _, err := MultiPixel(1, u, nil, 1, []float64{1, 2}, nil, false, nil); err == nil {
		t.Fatal("nil src must error")
	}
}

func TestLossIncreaseAndLinf(t *testing.T) {
	n := trainedNet(t, 12, nn.ActLinear, nn.LossMSE, 2, 3)
	u := []float64{0.1, 0.2, 0.3}
	target := []float64{1, 0}
	adv, err := FGSM(n, u, target, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if got := n.LossValue(adv, target) - n.LossValue(u, target); got < 0 {
		t.Fatalf("loss increase %v negative for FGSM on linear model", got)
	}
	if Linf(u, u) != 0 {
		t.Fatal("Linf of identical inputs must be 0")
	}
}

// MLPs plug into the same attack machinery as single-layer networks.
func TestFGSMOnMLP(t *testing.T) {
	src := rng.New(16)
	m, err := nn.NewMLP([]int{8, 12, 4}, nn.ActReLU, nn.ActSoftmax, nn.LossCrossEntropy)
	if err != nil {
		t.Fatal(err)
	}
	m.InitXavier(src)
	var g GradientSource = m
	u := src.UniformVec(8, 0.1, 0.9)
	target := []float64{0, 1, 0, 0}
	adv, err := FGSM(g, u, target, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if m.LossValue(adv, target) < m.LossValue(u, target)-1e-9 {
		t.Fatal("FGSM on MLP decreased the loss")
	}
}
