// Package dataset provides the image-classification data substrate for the
// reproduction. The paper evaluates on MNIST and CIFAR-10; this package
// contains (a) parsers for the real distribution formats (IDX and the
// CIFAR-10 binary batches) so genuine data is used when present, and (b)
// synthetic generators that preserve the statistics the paper's effects
// depend on: an MNIST-like set on which a single-layer network reaches
// ~90% accuracy with smooth, centrally-concentrated discriminative pixel
// mass, and a CIFAR-like set with low linear separability and
// high-frequency discriminative structure. DESIGN.md §2 documents the
// substitution argument.
package dataset

import (
	"errors"
	"fmt"

	"xbarsec/internal/rng"
	"xbarsec/internal/tensor"
)

// ErrEmpty indicates an operation was attempted on a dataset with no
// samples.
var ErrEmpty = errors.New("dataset: empty dataset")

// Dataset is a labelled image-classification dataset. X holds one
// flattened image per row with pixel values in [0, 1]; Labels holds the
// class index per row.
type Dataset struct {
	// X is the n x (Width*Height*Channels) design matrix.
	X *tensor.Matrix
	// Labels[i] is the class of row i, in [0, NumClasses).
	Labels []int
	// NumClasses is the number of distinct classes.
	NumClasses int
	// Width, Height and Channels describe the image geometry. Pixels are
	// stored channel-major: channel c, row y, column x maps to index
	// c*Width*Height + y*Width + x (the CIFAR-10 binary layout; MNIST has
	// Channels == 1 so the orders coincide).
	Width, Height, Channels int
	// Name identifies the dataset for reports ("mnist-synth", "cifar10", ...).
	Name string
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Labels) }

// Dim returns the flattened input dimensionality.
func (d *Dataset) Dim() int { return d.Width * d.Height * d.Channels }

// Validate checks internal consistency.
func (d *Dataset) Validate() error {
	if d.X == nil {
		return errors.New("dataset: nil design matrix")
	}
	if d.X.Rows() != len(d.Labels) {
		return fmt.Errorf("dataset: %d rows but %d labels", d.X.Rows(), len(d.Labels))
	}
	if d.X.Cols() != d.Dim() {
		return fmt.Errorf("dataset: %d columns but geometry %dx%dx%d", d.X.Cols(), d.Width, d.Height, d.Channels)
	}
	if d.NumClasses <= 0 {
		return fmt.Errorf("dataset: invalid class count %d", d.NumClasses)
	}
	for i, l := range d.Labels {
		if l < 0 || l >= d.NumClasses {
			return fmt.Errorf("dataset: label %d out of range at row %d", l, i)
		}
	}
	return nil
}

// Sample returns a copy of the i-th image and its label.
func (d *Dataset) Sample(i int) ([]float64, int) {
	return tensor.CloneVec(d.X.Row(i)), d.Labels[i]
}

// OneHot returns the n x NumClasses one-hot target matrix.
func (d *Dataset) OneHot() *tensor.Matrix {
	t := tensor.New(d.Len(), d.NumClasses)
	for i, l := range d.Labels {
		t.Set(i, l, 1)
	}
	return t
}

// Subset returns a new dataset holding the rows at the given indices,
// copying the data.
func (d *Dataset) Subset(indices []int) *Dataset {
	x := tensor.New(len(indices), d.Dim())
	labels := make([]int, len(indices))
	for k, i := range indices {
		x.SetRow(k, d.X.Row(i))
		labels[k] = d.Labels[i]
	}
	return &Dataset{
		X: x, Labels: labels, NumClasses: d.NumClasses,
		Width: d.Width, Height: d.Height, Channels: d.Channels, Name: d.Name,
	}
}

// Head returns the first n samples (or all if n exceeds Len).
func (d *Dataset) Head(n int) *Dataset {
	if n > d.Len() {
		n = d.Len()
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return d.Subset(idx)
}

// Shuffled returns a copy of the dataset with rows permuted by src.
func (d *Dataset) Shuffled(src *rng.Source) *Dataset {
	return d.Subset(src.Perm(d.Len()))
}

// SampleN returns n rows drawn without replacement using src. If n exceeds
// Len, all rows are returned (shuffled).
func (d *Dataset) SampleN(src *rng.Source, n int) *Dataset {
	return d.Subset(src.SampleWithoutReplacement(d.Len(), n))
}

// FirstChannel returns the per-pixel values of channel 0 for use in
// heatmaps, matching the paper's Figure 3 which plots only the first color
// channel for CIFAR-10.
func FirstChannel(values []float64, width, height int) []float64 {
	n := width * height
	if len(values) < n {
		n = len(values)
	}
	return tensor.CloneVec(values[:n])
}
