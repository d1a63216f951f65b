// Package crossbar simulates NVM crossbar arrays performing analog
// matrix-vector multiplication, following Section II-B of the paper. Each
// weight w_ij is realized by a differential conductance pair
// (G+_ij, G-_ij) under the minimum-power programming convention the paper
// assumes: for positive weights G-_ij is parked at the device off-
// conductance and vice versa, giving the one-to-one weight/conductance
// mapping of Eq. (6): |w_ij| ∝ G+_ij + G-_ij.
//
// The ideal mode reproduces Eq. (3)-(5) exactly. First-order non-ideality
// models (conductance quantization, programming/read noise, stuck-at
// faults, IR drop) are provided for the robustness ablations; the paper
// defers SPICE-level modelling to future work.
package crossbar

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"xbarsec/internal/rng"
	"xbarsec/internal/tensor"
)

// ErrNotProgrammed indicates an operation on a crossbar with no weights.
var ErrNotProgrammed = errors.New("crossbar: not programmed")

// DeviceConfig describes the NVM device technology and array non-
// idealities. The zero value is invalid; use DefaultDeviceConfig.
type DeviceConfig struct {
	// GOn is the maximum programmable conductance in siemens.
	GOn float64
	// GOff is the off-state conductance in siemens (> 0 for real devices;
	// the paper's "≈ 0" assumption corresponds to GOff << GOn).
	GOff float64
	// Vdd is the read voltage in volts; inputs in [0,1] scale to [0,Vdd].
	Vdd float64
	// Levels quantizes each device to this many evenly-spaced conductance
	// states between GOff and GOn. 0 (or 1) means analog (no
	// quantization).
	Levels int
	// ProgramNoiseStd is the relative (multiplicative) Gaussian error
	// applied once at programming time: G ← G·(1 + N(0, σ)).
	ProgramNoiseStd float64
	// ReadNoiseStd is the relative Gaussian error applied on every read.
	ReadNoiseStd float64
	// StuckFraction is the fraction of devices stuck at GOff or GOn
	// (half each), chosen at programming time.
	StuckFraction float64
	// IRDropAlpha is a first-order wire-resistance model: the voltage
	// reaching cell (i,j) is attenuated by 1 - IRDropAlpha·(i+j)/(M+N).
	IRDropAlpha float64
	// PowerMasking adds a dummy differential row whose conductances
	// equalize every column's total conductance to the largest column's.
	// The dummy row's output current is discarded, so inference is
	// unchanged, but the supply current becomes input-independent up to
	// Σ_j u_j — a countermeasure that removes the column-1-norm leak at
	// the cost of extra static power.
	PowerMasking bool
}

// DefaultDeviceConfig returns an ideal crossbar with a realistic ReRAM
// conductance window (GOn/GOff ratio 100).
func DefaultDeviceConfig() DeviceConfig {
	return DeviceConfig{GOn: 100e-6, GOff: 1e-6, Vdd: 0.2}
}

// Validate checks physical plausibility.
func (c DeviceConfig) Validate() error {
	if c.GOn <= 0 || c.GOff < 0 || c.GOn <= c.GOff {
		return fmt.Errorf("crossbar: conductance window [%v, %v] invalid", c.GOff, c.GOn)
	}
	if c.Vdd <= 0 {
		return fmt.Errorf("crossbar: Vdd %v must be positive", c.Vdd)
	}
	if c.Levels < 0 {
		return fmt.Errorf("crossbar: negative quantization levels %d", c.Levels)
	}
	if c.ProgramNoiseStd < 0 || c.ReadNoiseStd < 0 {
		return fmt.Errorf("crossbar: negative noise std")
	}
	if c.StuckFraction < 0 || c.StuckFraction > 1 {
		return fmt.Errorf("crossbar: stuck fraction %v out of [0,1]", c.StuckFraction)
	}
	if c.IRDropAlpha < 0 || c.IRDropAlpha >= 1 {
		return fmt.Errorf("crossbar: IR drop alpha %v out of [0,1)", c.IRDropAlpha)
	}
	return nil
}

// Crossbar is a programmed M x N differential crossbar array.
type Crossbar struct {
	gplus  *tensor.Matrix // M x N positive-path conductances
	gminus *tensor.Matrix // M x N negative-path conductances
	cfg    DeviceConfig
	scale  float64 // siemens per unit weight
	rows   int
	cols   int
	reads  *rng.Source // read-noise stream; nil when ReadNoiseStd == 0
	// mask holds the per-column dummy conductance (split equally between
	// a + and a − device) when PowerMasking is enabled; nil otherwise.
	mask []float64
	// eff caches the IR-drop-adjusted effective conductances for
	// noise-free arrays so batched calls (batch.go) amortize the
	// per-device attenuation arithmetic over many inputs. Built lazily
	// under effOnce; never populated when reads != nil, because per-read
	// noise makes effective conductances change on every read.
	effOnce sync.Once
	effDiff *tensor.Matrix // readConductance(G+) - readConductance(G-)
	effSum  *tensor.Matrix // readConductance(G+) + readConductance(G-)
	effMask []float64      // effective masking dummy row (nil without masking)
	// ir caches the deterministic half of the noisy read path: the
	// IR-drop-attenuated programmed conductances. Per-read noise then
	// multiplies these cached products — the same association order as
	// attenuating and perturbing each device inline — so noisy reads are
	// bit-identical to the uncached path while the per-read positional
	// arithmetic is hoisted. noiseBuf holds one row of per-device noise
	// draws (2 per device: G+ then G-), filled in the stream order the
	// scalar per-device draws consumed.
	irOnce   sync.Once
	irPlus   *tensor.Matrix
	irMinus  *tensor.Matrix
	irMask   []float64
	noiseBuf []float64
}

// irAdjusted materializes (and caches) the IR-drop-attenuated programmed
// conductances used by the noisy read path. With IRDropAlpha == 0 the
// matrices alias the programmed conductances directly.
func (x *Crossbar) irAdjusted() {
	x.irOnce.Do(func() {
		x.noiseBuf = make([]float64, 2*x.cols)
		if x.cfg.IRDropAlpha == 0 {
			x.irPlus, x.irMinus, x.irMask = x.gplus, x.gminus, x.mask
			return
		}
		x.irPlus = x.gplus.Clone()
		x.irMinus = x.gminus.Clone()
		total := float64(x.rows + x.cols)
		for i := 0; i < x.rows; i++ {
			pRow := x.irPlus.Row(i)
			mRow := x.irMinus.Row(i)
			for j := range pRow {
				// Same expression as readConductance (division kept — a
				// reciprocal multiply would not be bit-identical).
				f := 1 - x.cfg.IRDropAlpha*float64(i+j)/total
				pRow[j] *= f
				mRow[j] *= f
			}
		}
		if x.mask != nil {
			x.irMask = make([]float64, x.cols)
			for j, g := range x.mask {
				x.irMask[j] = g * (1 - x.cfg.IRDropAlpha*float64(x.rows+j)/total)
			}
		}
	})
}

// Program maps the weight matrix w onto a crossbar under the minimum-power
// convention. The conductance scale is chosen so the largest |w_ij| maps
// to GOn. src supplies programming noise and stuck-at fault locations; it
// may be nil when the config requests neither.
func Program(w *tensor.Matrix, cfg DeviceConfig, src *rng.Source) (*Crossbar, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if w == nil || w.Size() == 0 {
		return nil, fmt.Errorf("crossbar: empty weight matrix: %w", ErrNotProgrammed)
	}
	needsRandom := cfg.ProgramNoiseStd > 0 || cfg.StuckFraction > 0 || cfg.ReadNoiseStd > 0
	if needsRandom && src == nil {
		return nil, errors.New("crossbar: config requires randomness but src is nil")
	}
	maxAbs := w.MaxAbs()
	if maxAbs == 0 {
		// All-zero weights: park every device at GOff with unit scale.
		maxAbs = 1
	}
	scale := (cfg.GOn - cfg.GOff) / maxAbs
	m, n := w.Rows(), w.Cols()
	gp := tensor.New(m, n)
	gm := tensor.New(m, n)
	var progSrc, stuckSrc, readSrc *rng.Source
	if src != nil {
		progSrc = src.Split("program-noise")
		stuckSrc = src.Split("stuck-faults")
		readSrc = src.Split("read-noise")
	}
	for i := 0; i < m; i++ {
		wrow := w.Row(i)
		for j, wij := range wrow {
			on := cfg.GOff + float64(math.Abs(wij)*scale)
			on = quantize(on, cfg)
			if cfg.ProgramNoiseStd > 0 {
				on *= 1 + progSrc.Normal(0, cfg.ProgramNoiseStd)
			}
			on = clampConductance(on, cfg)
			off := cfg.GOff
			if wij >= 0 {
				gp.Set(i, j, on)
				gm.Set(i, j, off)
			} else {
				gp.Set(i, j, off)
				gm.Set(i, j, on)
			}
		}
	}
	if cfg.StuckFraction > 0 {
		injectStuckFaults(gp, gm, cfg, stuckSrc)
	}
	xb := &Crossbar{gplus: gp, gminus: gm, cfg: cfg, scale: scale, rows: m, cols: n}
	if cfg.ReadNoiseStd > 0 {
		xb.reads = readSrc
	}
	if cfg.PowerMasking {
		sums := xb.columnSumsRaw()
		var maxSum float64
		for _, s := range sums {
			if s > maxSum {
				maxSum = s
			}
		}
		xb.mask = make([]float64, n)
		for j, s := range sums {
			xb.mask[j] = maxSum - s
		}
	}
	return xb, nil
}

// columnSumsRaw returns Σ_i (G+_ij + G-_ij) over the functional rows only.
func (x *Crossbar) columnSumsRaw() []float64 {
	out := make([]float64, x.cols)
	for i := 0; i < x.rows; i++ {
		gpRow := x.gplus.Row(i)
		gmRow := x.gminus.Row(i)
		for j := range out {
			out[j] += gpRow[j] + gmRow[j]
		}
	}
	return out
}

func quantize(g float64, cfg DeviceConfig) float64 {
	if cfg.Levels <= 1 {
		return g
	}
	step := (cfg.GOn - cfg.GOff) / float64(cfg.Levels-1)
	k := math.Round((g - cfg.GOff) / step)
	return cfg.GOff + float64(k*step)
}

func clampConductance(g float64, cfg DeviceConfig) float64 {
	if g < cfg.GOff {
		return cfg.GOff
	}
	if g > cfg.GOn {
		return cfg.GOn
	}
	return g
}

func injectStuckFaults(gp, gm *tensor.Matrix, cfg DeviceConfig, src *rng.Source) {
	total := gp.Size() * 2
	faults := int(cfg.StuckFraction * float64(total))
	for k := 0; k < faults; k++ {
		flat := src.Intn(total)
		target := gp
		if flat >= gp.Size() {
			target = gm
			flat -= gp.Size()
		}
		i, j := flat/gp.Cols(), flat%gp.Cols()
		if src.Bool() {
			target.Set(i, j, cfg.GOff)
		} else {
			target.Set(i, j, cfg.GOn)
		}
	}
}

// Rows returns the number of outputs M.
func (x *Crossbar) Rows() int { return x.rows }

// Cols returns the number of inputs N.
func (x *Crossbar) Cols() int { return x.cols }

// Config returns the device configuration.
func (x *Crossbar) Config() DeviceConfig { return x.cfg }

// Scale returns the siemens-per-unit-weight programming scale.
func (x *Crossbar) Scale() float64 { return x.scale }

// readConductance returns the effective conductance of the device,
// applying per-read noise and the positional IR-drop attenuation.
func (x *Crossbar) readConductance(g float64, i, j int) float64 {
	if x.cfg.IRDropAlpha > 0 {
		g *= 1 - x.cfg.IRDropAlpha*float64(i+j)/float64(x.rows+x.cols)
	}
	if x.reads != nil {
		g *= 1 + x.reads.Normal(0, x.cfg.ReadNoiseStd)
		if g < 0 {
			g = 0
		}
	}
	return g
}

// OutputCurrents drives the column lines with voltages u·Vdd (u in [0,1])
// and returns the M differential output currents i_s = (G+ - G-)·v_u,
// Eq. (3) of the paper. Noise-free arrays read the cached effective
// conductances (see batch.go) — same floating-point operation order, so
// results are unchanged; only the per-call IR-drop arithmetic is hoisted.
func (x *Crossbar) OutputCurrents(u []float64) ([]float64, error) {
	if len(u) != x.cols {
		return nil, fmt.Errorf("crossbar: input length %d, want %d", len(u), x.cols)
	}
	out := make([]float64, x.rows)
	if x.reads == nil {
		x.effective()
		for i := 0; i < x.rows; i++ {
			dRow := x.effDiff.Row(i)[:len(u)]
			var s float64
			for j, uj := range u {
				if uj == 0 {
					continue
				}
				s += float64(dRow[j] * uj * x.cfg.Vdd)
			}
			out[i] = s
		}
		return out, nil
	}
	// Noisy path: one vectorized noise fill per row (2 draws per device,
	// G+ then G-, in the exact stream order of the per-device scalar
	// draws), applied to the cached IR-adjusted conductances.
	x.irAdjusted()
	for i := 0; i < x.rows; i++ {
		x.reads.FillNormal(x.noiseBuf, 0, x.cfg.ReadNoiseStd)
		pRow := x.irPlus.Row(i)
		mRow := x.irMinus.Row(i)
		var s float64
		for j, uj := range u {
			gp := pRow[j] * (1 + x.noiseBuf[2*j])
			if gp < 0 {
				gp = 0
			}
			gm := mRow[j] * (1 + x.noiseBuf[2*j+1])
			if gm < 0 {
				gm = 0
			}
			s += float64((gp - gm) * uj * x.cfg.Vdd)
		}
		out[i] = s
	}
	return out, nil
}

// Output returns the normalized layer pre-activation s ≈ Wu recovered from
// the output currents, Eq. (4): currents are divided by scale·Vdd so an
// ideal crossbar returns exactly Wu.
func (x *Crossbar) Output(u []float64) ([]float64, error) {
	is, err := x.OutputCurrents(u)
	if err != nil {
		return nil, err
	}
	inv := 1 / (x.scale * x.cfg.Vdd)
	for i := range is {
		is[i] *= inv
	}
	return is, nil
}

// TotalCurrent returns the total steady-state supply current
// i_total = Σ_j v_uj · G_j with G_j = Σ_i (G+_ij + G-_ij), Eq. (5). This
// is the quantity a power-measuring attacker observes.
func (x *Crossbar) TotalCurrent(u []float64) (float64, error) {
	if len(u) != x.cols {
		return 0, fmt.Errorf("crossbar: input length %d, want %d", len(u), x.cols)
	}
	var total float64
	if x.reads == nil {
		// Cached effective conductances, same operation order as below —
		// bit-identical, without the per-call IR-drop pass.
		x.effective()
		if walked, ok := x.columnWalk(u, nil); ok {
			return walked, nil
		}
		for i := 0; i < x.rows; i++ {
			sRow := x.effSum.Row(i)[:len(u)]
			for j, uj := range u {
				if uj == 0 {
					continue
				}
				total += float64(sRow[j] * uj * x.cfg.Vdd)
			}
		}
		if x.effMask != nil {
			for j, uj := range u {
				if uj == 0 {
					continue
				}
				total += float64(x.effMask[j] * uj * x.cfg.Vdd)
			}
		}
		return total, nil
	}
	// Noisy path: vectorized per-row noise fills over the cached
	// IR-adjusted conductances, stream-order-identical to per-device
	// scalar draws.
	x.irAdjusted()
	for i := 0; i < x.rows; i++ {
		x.reads.FillNormal(x.noiseBuf, 0, x.cfg.ReadNoiseStd)
		pRow := x.irPlus.Row(i)
		mRow := x.irMinus.Row(i)
		for j, uj := range u {
			gp := pRow[j] * (1 + x.noiseBuf[2*j])
			if gp < 0 {
				gp = 0
			}
			gm := mRow[j] * (1 + x.noiseBuf[2*j+1])
			if gm < 0 {
				gm = 0
			}
			total += float64((gp + gm) * uj * x.cfg.Vdd)
		}
	}
	if x.mask != nil {
		// The dummy row sits physically after the functional rows.
		x.reads.FillNormal(x.noiseBuf[:x.cols], 0, x.cfg.ReadNoiseStd)
		for j, uj := range u {
			g := x.irMask[j] * (1 + x.noiseBuf[j])
			if g < 0 {
				g = 0
			}
			total += float64(g * uj * x.cfg.Vdd)
		}
	}
	return total, nil
}

// Power returns the static read power Vdd · i_total for input u.
func (x *Crossbar) Power(u []float64) (float64, error) {
	i, err := x.TotalCurrent(u)
	if err != nil {
		return 0, err
	}
	return i * x.cfg.Vdd, nil
}

// ColumnConductanceSums returns G_j = Σ_i (G+_ij + G-_ij) for every input
// column j as programmed (without read noise), including any power-
// masking dummy row. Tests use this as the ground truth the side-channel
// probe must recover.
func (x *Crossbar) ColumnConductanceSums() []float64 {
	out := x.columnSumsRaw()
	if x.mask != nil {
		for j := range out {
			out[j] += x.mask[j]
		}
	}
	return out
}

// MaskOverheadFraction returns the extra static conductance added by
// power masking as a fraction of the functional array's total, or 0 when
// masking is off — the defense's power cost.
func (x *Crossbar) MaskOverheadFraction() float64 {
	if x.mask == nil {
		return 0
	}
	var maskSum, baseSum float64
	for _, v := range x.mask {
		maskSum += v
	}
	for _, v := range x.columnSumsRaw() {
		baseSum += v
	}
	if baseSum == 0 {
		return 0
	}
	return maskSum / baseSum
}

// EffectiveWeights returns the weight matrix implied by the programmed
// conductances, (G+ - G-)/scale. For an ideal configuration this equals
// the programmed weights exactly.
func (x *Crossbar) EffectiveWeights() *tensor.Matrix {
	w := tensor.New(x.rows, x.cols)
	for i := 0; i < x.rows; i++ {
		gpRow := x.gplus.Row(i)
		gmRow := x.gminus.Row(i)
		row := w.Row(i)
		for j := range row {
			row[j] = (gpRow[j] - gmRow[j]) / x.scale
		}
	}
	return w
}
