package experiment

import (
	"io"
	"sort"

	"xbarsec/internal/experiment/engine"
	"xbarsec/internal/report"
	"xbarsec/internal/rng"
)

// CalibrationRow is one configuration's victim accuracies.
type CalibrationRow struct {
	Config ModelConfig `json:"config"`
	// TrainAccuracy and TestAccuracy locate the victim in the paper's
	// accuracy regime (~90% MNIST, ~30-40% CIFAR for single-layer nets).
	TrainAccuracy float64 `json:"train_accuracy"`
	TestAccuracy  float64 `json:"test_accuracy"`
}

// CalibrationResult verifies the synthetic datasets land the victims in
// the paper's accuracy regime.
type CalibrationResult struct {
	Rows []CalibrationRow `json:"rows"`
}

// calibrateGrid trains each of the four configurations once and reports
// {train, test} accuracy per config — the CLI's calibration helper on
// the grid engine.
var calibrateGrid = &engine.Grid[struct{}, ModelConfig, CalibrationRow, *CalibrationResult]{
	Name:      "calibrate",
	Title:     "victim accuracies per configuration",
	SeedLabel: "calibration",
	Axes: func(t *engine.T) []engine.Axis {
		return []engine.Axis{configAxis(FourConfigs())}
	},
	Cells: func(t *engine.T, _ struct{}) ([]ModelConfig, error) {
		return FourConfigs(), nil
	},
	Job: func(t *engine.T, _ struct{}, cfg ModelConfig, _ *rng.Source) (CalibrationRow, error) {
		v, err := victimFor(t, cfg)
		if err != nil {
			return CalibrationRow{}, err
		}
		return CalibrationRow{
			Config:        cfg,
			TrainAccuracy: v.net.Accuracy(v.train),
			TestAccuracy:  v.net.Accuracy(v.test),
		}, nil
	},
	Reduce: func(t *engine.T, _ struct{}, cells []ModelConfig, rows []CalibrationRow) (*CalibrationResult, error) {
		return &CalibrationResult{Rows: rows}, nil
	},
}

// RunCalibration trains the four victims and reports their accuracies.
func RunCalibration(opts Options) (*CalibrationResult, error) {
	return calibrateGrid.Run(opts)
}

// Tables formats the calibration as a table. Rows are sorted by config
// name, matching the pre-engine CLI output.
func (r *CalibrationResult) Tables() []*report.Table {
	tbl := &report.Table{
		Title:  "Victim calibration (paper regime: MNIST ~0.92, CIFAR-10 ~0.30-0.40 test)",
		Header: []string{"config", "train acc", "test acc"},
	}
	rows := make([]CalibrationRow, len(r.Rows))
	copy(rows, r.Rows)
	sort.Slice(rows, func(i, j int) bool { return rows[i].Config.Name() < rows[j].Config.Name() })
	for _, row := range rows {
		tbl.AddRow(row.Config.Name(), report.F(row.TrainAccuracy, 3), report.F(row.TestAccuracy, 3))
	}
	return []*report.Table{tbl}
}

// Render formats the calibration table.
func (r *CalibrationResult) Render() string { return r.Tables()[0].String() }

// WriteJSON serializes the structured result.
func (r *CalibrationResult) WriteJSON(w io.Writer) error { return engine.WriteJSON(w, r) }
