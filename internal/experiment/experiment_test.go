package experiment

import (
	"strings"
	"testing"

	"xbarsec/internal/attack"
	"xbarsec/internal/dataset"
	"xbarsec/internal/nn"
)

// tinyOpts keeps experiment tests fast: minimum dataset sizes, 2 runs.
func tinyOpts() Options {
	return Options{Seed: 1, Scale: 0.01, Runs: 2}
}

func TestFourConfigs(t *testing.T) {
	cfgs := FourConfigs()
	if len(cfgs) != 4 {
		t.Fatalf("got %d configs", len(cfgs))
	}
	names := map[string]bool{}
	for _, c := range cfgs {
		names[c.Name()] = true
	}
	for _, want := range []string{"mnist/linear", "mnist/softmax", "cifar10/linear", "cifar10/softmax"} {
		if !names[want] {
			t.Fatalf("missing config %s", want)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.Normalized()
	if o.Scale != 1 {
		t.Fatalf("default scale %v", o.Scale)
	}
	o = Options{Scale: 2}.Normalized()
	if o.Scale != 1 {
		t.Fatal("over-scale must clamp to 1")
	}
	if (Options{Scale: 0.1}).ScaledCount(1000, 200) != 200 {
		t.Fatal("scaled must respect minimum")
	}
	if (Options{Scale: 0.5}.Normalized()).ScaledCount(1000, 200) != 500 {
		t.Fatal("scaled must multiply")
	}
}

func TestBuildVictimProducesWorkingOracle(t *testing.T) {
	opts := tinyOpts().Normalized()
	cfg := ModelConfig{Kind: dataset.MNIST, Act: nn.ActLinear, Crit: nn.LossMSE}
	v, err := buildVictim(cfg, opts, testSrc(t, 7))
	if err != nil {
		t.Fatal(err)
	}
	if v.train.Len() < 100 || v.test.Len() < 50 {
		t.Fatalf("dataset sizes %d/%d", v.train.Len(), v.test.Len())
	}
	if len(v.signals) != v.net.Inputs() {
		t.Fatalf("signals %d, want %d", len(v.signals), v.net.Inputs())
	}
	// The victim must have learned something.
	if acc := v.net.Accuracy(v.test); acc < 0.3 {
		t.Fatalf("victim test accuracy %v suspiciously low", acc)
	}
	// All power signals are positive (conductances are positive).
	for j, s := range v.signals {
		if s <= 0 {
			t.Fatalf("signal %d = %v, want positive", j, s)
		}
	}
}

func TestRunTable1Structure(t *testing.T) {
	res, err := RunTable1(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		for _, v := range []float64{row.MeanCorrTrain, row.MeanCorrTest, row.CorrOfMeanTrain, row.CorrOfMeanTest} {
			if v < -1.000001 || v > 1.000001 {
				t.Fatalf("%s: correlation %v out of range", row.Config.Name(), v)
			}
		}
		// Paper's core Case-1 finding: correlation-of-mean is large and
		// exceeds the per-sample mean correlation.
		if row.CorrOfMeanTest < row.MeanCorrTest-0.05 {
			t.Fatalf("%s: corr-of-mean %v should dominate mean-corr %v",
				row.Config.Name(), row.CorrOfMeanTest, row.MeanCorrTest)
		}
	}
	out := res.Render()
	if !strings.Contains(out, "mnist") || !strings.Contains(out, "cifar10") {
		t.Fatalf("render missing datasets:\n%s", out)
	}
}

func TestRunFig3Structure(t *testing.T) {
	res, err := RunFig3(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Panels) != 4 {
		t.Fatalf("panels = %d", len(res.Panels))
	}
	for _, p := range res.Panels {
		if len(p.Sensitivity) != p.Width*p.Height || len(p.Norms) != p.Width*p.Height {
			t.Fatalf("%s: map sizes %d/%d vs %dx%d", p.Config.Name(), len(p.Sensitivity), len(p.Norms), p.Width, p.Height)
		}
	}
	out := res.Render()
	if !strings.Contains(out, "Figure 3") || !strings.Contains(out, "1-norm map") {
		t.Fatal("render incomplete")
	}
}

func TestRunFig4Structure(t *testing.T) {
	res, err := RunFig4(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Panels) != 4 {
		t.Fatalf("panels = %d", len(res.Panels))
	}
	for _, panel := range res.Panels {
		if len(panel.Curves) != 5 {
			t.Fatalf("%s: curves = %d", panel.Config.Name(), len(panel.Curves))
		}
		for _, c := range panel.Curves {
			if len(c.Strengths) != len(c.Accuracies) || len(c.Strengths) == 0 {
				t.Fatalf("curve %s has bad lengths", c.Method)
			}
			for _, a := range c.Accuracies {
				if a < 0 || a > 1 {
					t.Fatalf("accuracy %v out of range", a)
				}
			}
			// At eps=0 every method leaves accuracy at the clean level.
			if c.Strengths[0] == 0 && c.Accuracies[0] != panel.CleanAccuracy {
				t.Fatalf("%s %s: eps=0 accuracy %v != clean %v",
					panel.Config.Name(), c.Method, c.Accuracies[0], panel.CleanAccuracy)
			}
		}
	}
	// MNIST linear panel: the worst-case attack must dominate random-pixel
	// at the largest strength (the paper's ordering).
	panel := res.Panels[0]
	var worst, rp float64
	for _, c := range panel.Curves {
		last := c.Accuracies[len(c.Accuracies)-1]
		switch c.Method {
		case attack.PixelWorst:
			worst = last
		case attack.PixelRandom:
			rp = last
		}
	}
	if worst > rp {
		t.Fatalf("worst-case accuracy %v should be <= random-pixel %v at max strength", worst, rp)
	}
	if s := res.Series(); len(s) != 4 {
		t.Fatalf("series map size %d", len(s))
	}
	if out := res.Render(); !strings.Contains(out, "Figure 4") {
		t.Fatal("render incomplete")
	}
}

func TestRunFig5Structure(t *testing.T) {
	opts := Fig5Options{
		Options: Options{Seed: 3, Scale: 0.01, Runs: 2},
		Queries: []int{10, 60},
		Lambdas: []float64{0, 0.01},

		SurrogateEpochs: 8,
	}
	res, err := RunFig5(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if len(row.Queries) != 2 || len(row.Lambdas) != 2 {
			t.Fatalf("grids %v %v", row.Queries, row.Lambdas)
		}
		for li := range row.Lambdas {
			for qi := range row.Queries {
				if got := len(row.SurrogateAcc[li][qi]); got != 2 {
					t.Fatalf("runs recorded = %d", got)
				}
				for _, a := range row.OracleAdvAcc[li][qi] {
					if a < 0 || a > 1 {
						t.Fatalf("accuracy %v out of range", a)
					}
				}
			}
		}
		d, p, err := row.Improvement(1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if p < 0 || p > 1 {
			t.Fatalf("p-value %v", p)
		}
		if d < -1 || d > 1 {
			t.Fatalf("delta %v", d)
		}
		if _, _, err := row.Improvement(0, 0); err == nil {
			t.Fatal("li=0 must be rejected")
		}
		if _, _, err := row.Improvement(1, 99); err == nil {
			t.Fatal("qi out of range must be rejected")
		}
	}
	out := res.Render()
	for _, want := range []string{"Figure 5 row", "Surrogate test accuracy", "Δ adv-accuracy"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q", want)
		}
	}
}

func TestFig5GridsFullScale(t *testing.T) {
	qs, ls := fig5Grids(Fig5Options{Options: Options{Scale: 1}}, 2000)
	if len(qs) != 7 || qs[len(qs)-1] != 2000 {
		t.Fatalf("full query grid %v", qs)
	}
	if len(ls) != 6 || ls[0] != 0 || ls[len(ls)-1] != 0.01 {
		t.Fatalf("full lambda grid %v", ls)
	}
	// Budget above trainN clamps and dedupes.
	qs, _ = fig5Grids(Fig5Options{Options: Options{Scale: 1}}, 600)
	for i := 1; i < len(qs); i++ {
		if qs[i] <= qs[i-1] {
			t.Fatalf("grid not strictly increasing: %v", qs)
		}
	}
	if qs[len(qs)-1] != 600 {
		t.Fatalf("grid must end at trainN: %v", qs)
	}
}
