package experiment

import (
	"fmt"
	"io"
	"math"

	"xbarsec/internal/attack"
	"xbarsec/internal/crossbar"
	"xbarsec/internal/dataset"
	"xbarsec/internal/experiment/engine"
	"xbarsec/internal/nn"
	"xbarsec/internal/pool"
	"xbarsec/internal/report"
	"xbarsec/internal/rng"
	"xbarsec/internal/sidechannel"
	"xbarsec/internal/stats"
	"xbarsec/internal/tensor"
)

// Extension experiments beyond the paper's evaluation, along its stated
// future-work axes: multi-layer networks (A4) and countermeasures (A5).

// DepthAblationRow compares how well first-layer column 1-norms (what the
// power channel reveals for a layer-per-array mapping) track the input
// sensitivity as network depth grows.
type DepthAblationRow struct {
	// Hidden lists hidden-layer widths (empty = the paper's single-layer
	// case).
	Hidden []int `json:"hidden"`
	// TestAccuracy is the trained network's test accuracy.
	TestAccuracy float64 `json:"test_accuracy"`
	// CorrOfMean is the Pearson correlation between mean |∂L/∂u| and the
	// first layer's column 1-norms.
	CorrOfMean float64 `json:"corr_of_mean"`
}

// DepthAblationResult is extension experiment A4.
type DepthAblationResult struct {
	Rows []DepthAblationRow `json:"rows"`
}

// depthEnv is A4's shared environment: the train/test splits all depths
// share read-only.
type depthEnv struct {
	cfg   ModelConfig
	train *dataset.Dataset
	test  *dataset.Dataset
}

// depthHiddens lists the swept architectures (empty = the paper's
// single-layer case).
func depthHiddens() [][]int { return [][]int{{}, {64}, {64, 32}} }

// depthGrid measures the power channel's Case-1 signal on deeper
// networks (paper §V future work) on the grid engine: for multi-layer
// networks the first array's column norms are still observable, but
// hidden layers decouple them from the end-to-end input sensitivity.
var depthGrid = &engine.Grid[depthEnv, []int, DepthAblationRow, *DepthAblationResult]{
	Name:      "ablate-depth",
	Title:     "power-channel signal vs network depth (A4)",
	SeedLabel: "ablation-depth",
	Axes: func(t *engine.T) []engine.Axis {
		ax := engine.Axis{Name: "hidden"}
		for _, h := range depthHiddens() {
			if len(h) == 0 {
				ax.Values = append(ax.Values, "none")
				continue
			}
			ax.Values = append(ax.Values, fmt.Sprintf("%v", h))
		}
		return []engine.Axis{ax}
	},
	Setup: func(t *engine.T) (depthEnv, error) {
		cfg := ModelConfig{Kind: dataset.MNIST, Act: nn.ActSoftmax, Crit: nn.LossCrossEntropy}
		train, test, err := loadData(cfg, t.Opts, t.Root.Split("data"))
		if err != nil {
			return depthEnv{}, err
		}
		return depthEnv{cfg: cfg, train: train, test: test}, nil
	},
	Cells: func(t *engine.T, _ depthEnv) ([][]int, error) {
		return depthHiddens(), nil
	},
	Src: func(t *engine.T, hidden []int, _ int) *rng.Source {
		return t.Root.SplitN("depth", len(hidden))
	},
	Job: func(t *engine.T, env depthEnv, hidden []int, src *rng.Source) (DepthAblationRow, error) {
		var (
			acc      float64
			sens     []float64
			colNorms []float64
		)
		if len(hidden) == 0 {
			net, _, err := nn.TrainNew(env.train, env.cfg.Act, env.cfg.Crit, trainCfgFor(env.cfg), src.Split("train"))
			if err != nil {
				return DepthAblationRow{}, err
			}
			acc = net.Accuracy(env.test)
			sens = net.MeanAbsInputGradient(env.test)
			colNorms = net.W.ColAbsSums()
		} else {
			widths := append([]int{env.train.Dim()}, hidden...)
			widths = append(widths, env.train.NumClasses)
			mlp, err := nn.NewMLP(widths, nn.ActReLU, env.cfg.Act, env.cfg.Crit)
			if err != nil {
				return DepthAblationRow{}, err
			}
			mlp.InitXavier(src.Split("init"))
			if _, err := nn.TrainMLP(mlp, env.train, nn.TrainConfig{
				Epochs: 25, BatchSize: 32, LearningRate: 0.1, Momentum: 0.9,
			}, src.Split("sgd")); err != nil {
				return DepthAblationRow{}, err
			}
			acc = mlp.Accuracy(env.test)
			oh := env.test.OneHot()
			sens = make([]float64, env.train.Dim())
			for i := 0; i < env.test.Len(); i++ {
				g := mlp.InputGradient(env.test.X.Row(i), oh.Row(i))
				for j, v := range g {
					sens[j] += math.Abs(v)
				}
			}
			// Only the first layer's current factors into input-
			// independent column norms, so program that layer alone and
			// extract its column signals from the array's power rail,
			// exactly as the attacker would.
			xb, err := crossbar.Program(mlp.Layers[0], crossbar.DefaultDeviceConfig(), nil)
			if err != nil {
				return DepthAblationRow{}, err
			}
			probe, err := sidechannel.NewProbe(sidechannel.MeterFromCrossbar(xb), 0, nil)
			if err != nil {
				return DepthAblationRow{}, err
			}
			colNorms, err = probe.ExtractColumnSignals(1)
			if err != nil {
				return DepthAblationRow{}, err
			}
		}
		corr, err := stats.Pearson(sens, colNorms)
		if err != nil {
			return DepthAblationRow{}, fmt.Errorf("experiment: depth ablation %v: %w", hidden, err)
		}
		return DepthAblationRow{Hidden: hidden, TestAccuracy: acc, CorrOfMean: corr}, nil
	},
	Reduce: func(t *engine.T, _ depthEnv, cells [][]int, rows []DepthAblationRow) (*DepthAblationResult, error) {
		return &DepthAblationResult{Rows: rows}, nil
	},
}

// RunDepthAblation measures the power channel's Case-1 signal on deeper
// networks.
func RunDepthAblation(opts Options) (*DepthAblationResult, error) {
	return depthGrid.Run(opts)
}

// Tables formats A4 as a table.
func (r *DepthAblationResult) Tables() []*report.Table {
	t := &report.Table{
		Title:  "Extension A4: power-channel signal vs network depth (MNIST, softmax head)",
		Header: []string{"hidden layers", "test acc", "corr(mean |dL/du|, L1-norms of layer 0)"},
	}
	for _, row := range r.Rows {
		name := "none (paper)"
		if len(row.Hidden) > 0 {
			name = fmt.Sprintf("%v", row.Hidden)
		}
		t.AddRow(name, report.F(row.TestAccuracy, 3), report.F(row.CorrOfMean, 3))
	}
	return []*report.Table{t}
}

// Render formats A4.
func (r *DepthAblationResult) Render() string { return r.Tables()[0].String() }

// WriteJSON serializes the structured result.
func (r *DepthAblationResult) WriteJSON(w io.Writer) error { return engine.WriteJSON(w, r) }

// MaskingAblationResult is extension experiment A5: the dummy-row power
// masking countermeasure.
type MaskingAblationResult struct {
	// RankCorrPlain and RankCorrMasked are the Spearman correlations
	// between extracted signals and true column 1-norms.
	RankCorrPlain  float64 `json:"rank_corr_plain"`
	RankCorrMasked float64 `json:"rank_corr_masked"`
	// AttackAccPlain and AttackAccMasked are oracle accuracies under the
	// power-guided "+" single-pixel attack at the given strength.
	AttackAccPlain  float64 `json:"attack_acc_plain"`
	AttackAccMasked float64 `json:"attack_acc_masked"`
	// CleanAcc is the unattacked accuracy (identical for both arrays).
	CleanAcc float64 `json:"clean_acc"`
	// Eps is the attack strength used.
	Eps float64 `json:"eps"`
	// Overhead is the masking power overhead fraction.
	Overhead float64 `json:"overhead"`
}

// maskingEps is the A5 attack strength.
const maskingEps = 6.0

// maskingEnv is A5's shared environment: the victim, the masked
// deployment of the same network, and both arrays' extracted signals.
type maskingEnv struct {
	v             *victim
	maskedHW      *crossbar.Network
	plainSignals  []float64
	maskedSignals []float64
	rhoPlain      float64
	rhoMasked     float64
}

// maskingCell names one attacked array of A5.
type maskingCell struct {
	label  string // also the historical rng split label
	masked bool
}

// maskingGrid evaluates the power-masking defense end to end on the
// grid engine: Setup builds the plain and masked deployments and
// extracts both arrays' signals; the two cells measure the power-guided
// attack against each array.
var maskingGrid = &engine.Grid[*maskingEnv, maskingCell, float64, *MaskingAblationResult]{
	Name:      "ablate-masking",
	Title:     "dummy-row power masking defense (A5)",
	SeedLabel: "ablation-masking",
	Axes: func(t *engine.T) []engine.Axis {
		return []engine.Axis{{Name: "array", Values: []string{"plain", "masked"}}}
	},
	Setup: func(t *engine.T) (*maskingEnv, error) {
		cfg := ModelConfig{Kind: dataset.MNIST, Act: nn.ActLinear, Crit: nn.LossMSE}
		v, err := victimFor(t, cfg)
		if err != nil {
			return nil, err
		}
		trueNorms := v.net.W.ColAbsSums()
		dcfg := crossbar.DefaultDeviceConfig()
		dcfg.PowerMasking = true
		maskedHW, err := crossbar.NewNetwork(v.net, dcfg, nil)
		if err != nil {
			return nil, err
		}
		extract := func(hw *crossbar.Network) ([]float64, float64, error) {
			probe, err := sidechannel.NewProbe(sidechannel.MeterFromCrossbar(hw.Crossbar()), 0, nil)
			if err != nil {
				return nil, 0, err
			}
			signals, err := probe.ExtractColumnSignals(1)
			if err != nil {
				return nil, 0, err
			}
			rho, err := stats.Spearman(signals, trueNorms)
			if err != nil {
				// A fully-masked array yields constant signals; the rank
				// correlation is undefined, which for the attacker means no
				// information: report 0.
				return signals, 0, nil
			}
			return signals, rho, nil
		}
		env := &maskingEnv{v: v, maskedHW: maskedHW}
		if env.plainSignals, env.rhoPlain, err = extract(v.hw); err != nil {
			return nil, err
		}
		if env.maskedSignals, env.rhoMasked, err = extract(maskedHW); err != nil {
			return nil, err
		}
		return env, nil
	},
	Cells: func(t *engine.T, _ *maskingEnv) ([]maskingCell, error) {
		return []maskingCell{{label: "plain"}, {label: "masked", masked: true}}, nil
	},
	Src: func(t *engine.T, c maskingCell, _ int) *rng.Source {
		return t.Root.Split(c.label)
	},
	Job: func(t *engine.T, env *maskingEnv, c maskingCell, src *rng.Source) (float64, error) {
		hw, signals := env.v.hw, env.plainSignals
		if c.masked {
			hw, signals = env.maskedHW, env.maskedSignals
		}
		v := env.v
		oh := v.test.OneHot()
		n := v.test.Len()
		advs := make([][]float64, n)
		err := pool.DoErr(t.Opts.Workers, n, func(i int) error {
			adv, err := attack.SinglePixel(attack.PixelNormPlus, tensor.CloneVec(v.test.X.Row(i)), oh.Row(i), maskingEps, signals, nil, src.SplitN("sample", i))
			if err != nil {
				return err
			}
			advs[i] = adv
			return nil
		})
		if err != nil {
			return 0, err
		}
		labels, err := hw.PredictBatch(advs)
		if err != nil {
			return 0, err
		}
		correct := 0
		for i, l := range labels {
			if l == v.test.Labels[i] {
				correct++
			}
		}
		return float64(correct) / float64(n), nil
	},
	Reduce: func(t *engine.T, env *maskingEnv, cells []maskingCell, accs []float64) (*MaskingAblationResult, error) {
		return &MaskingAblationResult{
			RankCorrPlain:   env.rhoPlain,
			RankCorrMasked:  env.rhoMasked,
			AttackAccPlain:  accs[0],
			AttackAccMasked: accs[1],
			CleanAcc:        env.v.net.Accuracy(env.v.test),
			Eps:             maskingEps,
			Overhead:        env.maskedHW.Crossbar().MaskOverheadFraction(),
		}, nil
	},
}

// RunMaskingAblation evaluates the power-masking defense end to end.
func RunMaskingAblation(opts Options) (*MaskingAblationResult, error) {
	return maskingGrid.Run(opts)
}

// Tables formats A5 as a table.
func (r *MaskingAblationResult) Tables() []*report.Table {
	t := &report.Table{
		Title:  fmt.Sprintf("Extension A5: dummy-row power masking defense (clean acc %.3f, attack eps %.1f)", r.CleanAcc, r.Eps),
		Header: []string{"array", "side-channel rank corr", "acc under power-guided attack", "power overhead"},
	}
	t.AddRow("plain", report.F(r.RankCorrPlain, 3), report.F(r.AttackAccPlain, 3), "0%")
	t.AddRow("masked", report.F(r.RankCorrMasked, 3), report.F(r.AttackAccMasked, 3),
		fmt.Sprintf("%.0f%%", 100*r.Overhead))
	return []*report.Table{t}
}

// Render formats A5.
func (r *MaskingAblationResult) Render() string { return r.Tables()[0].String() }

// WriteJSON serializes the structured result.
func (r *MaskingAblationResult) WriteJSON(w io.Writer) error { return engine.WriteJSON(w, r) }
