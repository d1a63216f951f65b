package experiment

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"xbarsec/internal/attack"
	"xbarsec/internal/crossbar"
	"xbarsec/internal/dataset"
	"xbarsec/internal/experiment/engine"
	"xbarsec/internal/nn"
	"xbarsec/internal/oracle"
	"xbarsec/internal/pool"
	"xbarsec/internal/report"
	"xbarsec/internal/rng"
	"xbarsec/internal/stats"
	"xbarsec/internal/surrogate"
)

// fig5AttackEps is the FGSM strength the paper uses for Figure 5.
const fig5AttackEps = 0.1

// Fig5Options extends Options with the sweep grids of Figure 5; zero
// values select the paper's grids (thinned at small Scale).
type Fig5Options struct {
	Options
	// Queries overrides the query-budget grid.
	Queries []int
	// Lambdas overrides the power-loss-weight grid.
	Lambdas []float64
	// SurrogateEpochs overrides surrogate training length.
	SurrogateEpochs int
}

// Fig5Row holds one row of Figure 5 (a dataset x disclosure-mode pair):
// per (λ, query budget) the surrogate's test accuracy and the oracle's
// adversarial accuracy under surrogate-crafted FGSM, across runs.
type Fig5Row struct {
	Kind    dataset.Kind `json:"kind"`
	Mode    oracle.Mode  `json:"mode"`
	Queries []int        `json:"queries"`
	Lambdas []float64    `json:"lambdas"`
	// SurrogateAcc[l][q] collects per-run surrogate test accuracies.
	SurrogateAcc [][][]float64 `json:"surrogate_acc"`
	// OracleAdvAcc[l][q] collects per-run oracle adversarial accuracies.
	OracleAdvAcc [][][]float64 `json:"oracle_adv_acc"`
	// CleanAccuracy is the oracle's unattacked test accuracy.
	CleanAccuracy float64 `json:"clean_accuracy"`
}

// Fig5Result reproduces Figure 5's four rows.
type Fig5Result struct {
	Rows []Fig5Row `json:"rows"`
	Runs int       `json:"runs"`
}

func fig5Grids(opts Fig5Options, trainN int) (queries []int, lambdas []float64) {
	queries = opts.Queries
	if len(queries) == 0 {
		if opts.Scale < 0.5 {
			queries = []int{10, 50, 200, trainN}
		} else {
			queries = []int{2, 10, 50, 100, 500, 1000, trainN}
		}
	}
	seen := map[int]bool{}
	var qs []int
	for _, q := range queries {
		if q > trainN {
			q = trainN
		}
		if q > 0 && !seen[q] {
			seen[q] = true
			qs = append(qs, q)
		}
	}
	sort.Ints(qs)
	lambdas = opts.Lambdas
	if len(lambdas) == 0 {
		if opts.Scale < 0.5 {
			lambdas = []float64{0, 0.004, 0.01}
		} else {
			lambdas = []float64{0, 0.002, 0.004, 0.006, 0.008, 0.01}
		}
	}
	return qs, lambdas
}

// fig5RowSpec names one Figure 5 row: a dataset x disclosure-mode pair.
type fig5RowSpec struct {
	kind dataset.Kind
	mode oracle.Mode
}

func (rs fig5RowSpec) label() string { return fmt.Sprintf("%s-%s", rs.kind, rs.mode) }

// fig5RowSpecs lists the paper's four rows in order.
func fig5RowSpecs() []fig5RowSpec {
	return []fig5RowSpec{
		{dataset.MNIST, oracle.LabelOnly},
		{dataset.MNIST, oracle.RawOutput},
		{dataset.CIFAR10, oracle.LabelOnly},
		{dataset.CIFAR10, oracle.RawOutput},
	}
}

// fig5RowEnv is one row's shared environment, built once in Setup: the
// trained victim, its clean oracle accuracy, and the sweep grids.
type fig5RowEnv struct {
	spec    fig5RowSpec
	victim  *victim
	clean   float64
	queries []int
	lambdas []float64
	sCfg    surrogate.Config
}

// fig5Cell is one (row, run) grid point.
type fig5Cell struct {
	row int
	run int
}

// fig5CellAcc is one (λ, budget) pair's accuracies for a single run.
type fig5CellAcc struct{ sAcc, aAcc float64 }

// fig5Runs resolves the repetition count.
func fig5Runs(opts Options) int {
	if opts.Runs > 0 {
		return opts.Runs
	}
	return opts.ScaledCount(10, 3)
}

// fig5SurrogateCfg resolves one row's surrogate training config.
func fig5SurrogateCfg(x Fig5Options, kind dataset.Kind) surrogate.Config {
	sCfg := surrogate.DefaultConfig()
	if kind == dataset.CIFAR10 {
		// MSE gradients scale with ‖u‖²; dense 3072-dim CIFAR inputs need
		// a far smaller rate than sparse MNIST digits for stable SGD, and
		// more epochs so the λ=0 baseline is as converged as the power-
		// regularized runs (otherwise Δ conflates the power prior with
		// simple training acceleration).
		sCfg.LearningRate = 0.003
		sCfg.Epochs = 120
	}
	if x.SurrogateEpochs > 0 {
		sCfg.Epochs = x.SurrogateEpochs
	} else if x.Scale < 0.5 {
		sCfg.Epochs /= 2
	}
	return sCfg
}

// fig5GridFor builds the Figure 5 grid for the given extended options:
// Setup trains the four row victims (through the store) and measures
// their clean accuracy; the cells are the (row x run) cross product,
// each run sweeping the full (λ x budget) grid against its own oracle.
func fig5GridFor(x Fig5Options) *engine.Grid[[]fig5RowEnv, fig5Cell, [][]fig5CellAcc, *Fig5Result] {
	return &engine.Grid[[]fig5RowEnv, fig5Cell, [][]fig5CellAcc, *Fig5Result]{
		Name:  "fig5",
		Title: "Figure 5 surrogate black-box attack sweeps",
		Axes: func(t *engine.T) []engine.Axis {
			rows := engine.Axis{Name: "row"}
			for _, rs := range fig5RowSpecs() {
				rows.Values = append(rows.Values, rs.label())
			}
			runs := make([]int, fig5Runs(t.Opts))
			for i := range runs {
				runs[i] = i
			}
			return []engine.Axis{rows, engine.IntAxis("run", runs)}
		},
		Setup: func(t *engine.T) ([]fig5RowEnv, error) {
			specs := fig5RowSpecs()
			envs := make([]fig5RowEnv, len(specs))
			err := pool.DoErr(t.Opts.Workers, len(specs), func(ri int) error {
				rs := specs[ri]
				// Case 2 uses linear victims only (paper §IV), so the four
				// rows share two canonical victims (one per dataset).
				cfg := ModelConfig{Kind: rs.kind, Act: nn.ActLinear, Crit: nn.LossMSE}
				v, err := victimFor(t, cfg)
				if err != nil {
					return err
				}
				orc, err := oracle.New(v.hw, oracle.Config{Mode: rs.mode, MeasurePower: true})
				if err != nil {
					return err
				}
				clean, err := orc.AccuracyOn(v.test)
				if err != nil {
					return err
				}
				fopts := x
				fopts.Options = t.Opts
				queries, lambdas := fig5Grids(fopts, v.train.Len())
				envs[ri] = fig5RowEnv{
					spec: rs, victim: v, clean: clean,
					queries: queries, lambdas: lambdas,
					sCfg: fig5SurrogateCfg(fopts, rs.kind),
				}
				return nil
			})
			return envs, err
		},
		Cells: func(t *engine.T, envs []fig5RowEnv) ([]fig5Cell, error) {
			runs := fig5Runs(t.Opts)
			cells := make([]fig5Cell, 0, len(envs)*runs)
			for _, coord := range engine.CrossProduct(len(envs), runs) {
				cells = append(cells, fig5Cell{row: coord[0], run: coord[1]})
			}
			return cells, nil
		},
		Src: func(t *engine.T, c fig5Cell, _ int) *rng.Source {
			return t.Root.Split(fig5RowSpecs()[c.row].label()).SplitN("run", c.run)
		},
		Job: func(t *engine.T, envs []fig5RowEnv, c fig5Cell, runSrc *rng.Source) ([][]fig5CellAcc, error) {
			env := envs[c.row]
			v := env.victim
			// Each run gets its own Oracle: the query counter is the
			// oracle's only mutable state, and the underlying ideal
			// crossbar is read-only, so per-run oracles return exactly
			// what one shared oracle would.
			runOrc, err := oracle.New(v.hw, oracle.Config{Mode: env.spec.mode, MeasurePower: true})
			if err != nil {
				return nil, err
			}
			cells := make([][]fig5CellAcc, len(env.lambdas))
			for li := range cells {
				cells[li] = make([]fig5CellAcc, len(env.queries))
			}
			for qi, q := range env.queries {
				qs, err := oracle.Collect(runOrc, v.train, q, runSrc.SplitN("collect", qi))
				if err != nil {
					return nil, err
				}
				for li, lambda := range env.lambdas {
					cfg := env.sCfg
					cfg.Lambda = lambda
					model, err := surrogate.Train(qs, cfg, runSrc.SplitN(fmt.Sprintf("train-%d", qi), li))
					if err != nil {
						return nil, fmt.Errorf("experiment: fig5 %s run=%d q=%d λ=%v: %w", env.spec.label(), c.run, q, lambda, err)
					}
					sAcc := model.Accuracy(v.test.X, v.test.Labels)
					aAcc, err := oracleFGSMAccuracy(v, model, t.Opts.Workers)
					if err != nil {
						return nil, err
					}
					cells[li][qi] = fig5CellAcc{sAcc: sAcc, aAcc: aAcc}
				}
			}
			return cells, nil
		},
		Reduce: func(t *engine.T, envs []fig5RowEnv, cells []fig5Cell, results [][][]fig5CellAcc) (*Fig5Result, error) {
			runs := fig5Runs(t.Opts)
			res := &Fig5Result{Runs: runs}
			for ri, env := range envs {
				row := Fig5Row{
					Kind: env.spec.kind, Mode: env.spec.mode,
					Queries: env.queries, Lambdas: env.lambdas,
					CleanAccuracy: env.clean,
					SurrogateAcc:  allocCells(len(env.lambdas), len(env.queries)),
					OracleAdvAcc:  allocCells(len(env.lambdas), len(env.queries)),
				}
				// Append per-run results in run order, as the serial
				// sweep would.
				for run := 0; run < runs; run++ {
					rc := results[ri*runs+run]
					for li := range env.lambdas {
						for qi := range env.queries {
							row.SurrogateAcc[li][qi] = append(row.SurrogateAcc[li][qi], rc[li][qi].sAcc)
							row.OracleAdvAcc[li][qi] = append(row.OracleAdvAcc[li][qi], rc[li][qi].aAcc)
						}
					}
				}
				res.Rows = append(res.Rows, row)
			}
			return res, nil
		},
	}
}

// RunFig5 regenerates Figure 5: surrogate-based black-box attacks with
// and without power information, for MNIST/CIFAR x label-only/raw-output.
func RunFig5(opts Fig5Options) (*Fig5Result, error) {
	return fig5GridFor(opts).Run(opts.Options)
}

func allocCells(l, q int) [][][]float64 {
	out := make([][][]float64, l)
	for i := range out {
		out[i] = make([][]float64, q)
	}
	return out
}

// oracleFGSMAccuracy crafts FGSM(ε=0.1) examples on the surrogate for
// every test input — concurrently; FGSM is deterministic — and measures
// the oracle's accuracy on them through the batched predictor.
func oracleFGSMAccuracy(v *victim, model *surrogate.Model, workers int) (float64, error) {
	ds := v.test
	oh := ds.OneHot()
	advs := make([][]float64, ds.Len())
	err := pool.DoErr(workers, ds.Len(), func(i int) error {
		adv, err := attack.FGSM(model.Net, ds.X.Row(i), oh.Row(i), fig5AttackEps)
		if err != nil {
			return err
		}
		advs[i] = adv
		return nil
	})
	if err != nil {
		return 0, err
	}
	labels, err := v.hw.PredictBatch(advs)
	if err != nil {
		return 0, err
	}
	correct := 0
	for i, label := range labels {
		if label == ds.Labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(ds.Len()), nil
}

// Improvement returns, for lambda index li > 0 and query index qi, the
// mean attack improvement Δ = mean(advAcc(λ=0)) − mean(advAcc(λ)) and the
// Welch t-test p-value across runs (positive Δ = power info strengthens
// the attack), matching Figure 5's right-hand panels.
func (r *Fig5Row) Improvement(li, qi int) (delta, pValue float64, err error) {
	if li <= 0 || li >= len(r.Lambdas) || qi < 0 || qi >= len(r.Queries) {
		return 0, 0, fmt.Errorf("experiment: improvement index (%d,%d) out of range", li, qi)
	}
	base := r.OracleAdvAcc[0][qi]
	with := r.OracleAdvAcc[li][qi]
	delta = stats.Mean(base) - stats.Mean(with)
	res, err := stats.WelchTTest(base, with)
	if err != nil {
		// Insufficient runs for a p-value: report no significance.
		return delta, 1, nil
	}
	return delta, res.P, nil
}

// panelTables builds one row's three Figure 5 panels: surrogate
// accuracy, oracle adversarial accuracy, and the power-information
// improvement with significance asterisks (p < 0.05). titlePrefix
// distinguishes the rendered form (empty — rows carry their own header
// line) from the exported form ("[kind, mode] ").
func (row *Fig5Row) panelTables(titlePrefix string) (sur, adv, diff *report.Table) {
	sur = &report.Table{Title: titlePrefix + "Surrogate test accuracy", Header: []string{"queries"}}
	adv = &report.Table{Title: titlePrefix + "Oracle accuracy under surrogate FGSM (eps=0.1)", Header: []string{"queries"}}
	for _, l := range row.Lambdas {
		sur.Header = append(sur.Header, fmt.Sprintf("λ=%g", l))
		adv.Header = append(adv.Header, fmt.Sprintf("λ=%g", l))
	}
	for qi, q := range row.Queries {
		srow := []string{fmt.Sprintf("%d", q)}
		arow := []string{fmt.Sprintf("%d", q)}
		for li := range row.Lambdas {
			srow = append(srow, report.F(stats.Mean(row.SurrogateAcc[li][qi]), 3))
			arow = append(arow, report.F(stats.Mean(row.OracleAdvAcc[li][qi]), 3))
		}
		sur.AddRow(srow...)
		adv.AddRow(arow...)
	}
	diff = &report.Table{Title: titlePrefix + "Attack improvement with power info (Δ adv-accuracy, * = p<0.05)", Header: []string{"queries"}}
	for _, l := range row.Lambdas[1:] {
		diff.Header = append(diff.Header, fmt.Sprintf("λ=%g", l))
	}
	for qi, q := range row.Queries {
		drow := []string{fmt.Sprintf("%d", q)}
		for li := 1; li < len(row.Lambdas); li++ {
			d, p, err := row.Improvement(li, qi)
			if err != nil {
				drow = append(drow, "err")
				continue
			}
			drow = append(drow, report.F(d, 3)+report.SignificanceMark(p, 0.05))
		}
		diff.AddRow(drow...)
	}
	return sur, adv, diff
}

// Tables returns the three panels per row, titled for standalone export.
func (r *Fig5Result) Tables() []*report.Table {
	var out []*report.Table
	for i := range r.Rows {
		row := &r.Rows[i]
		sur, adv, diff := row.panelTables(fmt.Sprintf("[%s, %s] ", row.Kind, row.Mode))
		out = append(out, sur, adv, diff)
	}
	return out
}

// Render prints, per row, the three Figure 5 panels as tables.
func (r *Fig5Result) Render() string {
	var b strings.Builder
	for i := range r.Rows {
		row := &r.Rows[i]
		fmt.Fprintf(&b, "=== Figure 5 row: %s, %s (clean oracle accuracy %.3f, %d runs) ===\n",
			row.Kind, row.Mode, row.CleanAccuracy, r.Runs)
		sur, adv, diff := row.panelTables("")
		b.WriteString(sur.String())
		b.WriteString(adv.String())
		b.WriteString(diff.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// WriteJSON serializes the structured result.
func (r *Fig5Result) WriteJSON(w io.Writer) error { return engine.WriteJSON(w, r) }

// Compile-time guards: the experiment relies on these types satisfying
// the attack interfaces.
var (
	_ attack.GradientSource = (*nn.Network)(nil)
	_                       = crossbar.DefaultDeviceConfig
)
