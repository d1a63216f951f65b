package dataset

import (
	"testing"

	"xbarsec/internal/rng"
	"xbarsec/internal/tensor"
)

func makeTiny(t *testing.T) *Dataset {
	t.Helper()
	x, err := tensor.NewFromRows([][]float64{
		{0, 0.1, 0.2, 0.3},
		{0.4, 0.5, 0.6, 0.7},
		{0.8, 0.9, 1.0, 0.0},
		{0.2, 0.2, 0.2, 0.2},
	})
	if err != nil {
		t.Fatal(err)
	}
	d := &Dataset{X: x, Labels: []int{0, 1, 0, 1}, NumClasses: 2, Width: 2, Height: 2, Channels: 1, Name: "tiny"}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestValidateCatchesErrors(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Dataset)
	}{
		{"nil matrix", func(d *Dataset) { d.X = nil }},
		{"label count", func(d *Dataset) { d.Labels = d.Labels[:2] }},
		{"geometry", func(d *Dataset) { d.Width = 3 }},
		{"class count", func(d *Dataset) { d.NumClasses = 0 }},
		{"label range", func(d *Dataset) { d.Labels[0] = 7 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			d := makeTiny(t)
			tt.mutate(d)
			if err := d.Validate(); err == nil {
				t.Fatal("expected validation error")
			}
		})
	}
}

func TestOneHot(t *testing.T) {
	d := makeTiny(t)
	oh := d.OneHot()
	if oh.Rows() != 4 || oh.Cols() != 2 {
		t.Fatalf("shape %dx%d", oh.Rows(), oh.Cols())
	}
	for i, l := range d.Labels {
		for c := 0; c < 2; c++ {
			want := 0.0
			if c == l {
				want = 1
			}
			if oh.At(i, c) != want {
				t.Fatalf("one-hot (%d,%d) = %v", i, c, oh.At(i, c))
			}
		}
	}
}

func TestSubsetCopies(t *testing.T) {
	d := makeTiny(t)
	s := d.Subset([]int{2, 0})
	if s.Len() != 2 || s.Labels[0] != 0 {
		t.Fatalf("subset %+v", s.Labels)
	}
	s.X.Set(0, 0, 99)
	if d.X.At(2, 0) == 99 {
		t.Fatal("Subset must copy data")
	}
}

func TestSampleNAndHead(t *testing.T) {
	d := makeTiny(t)
	s := d.SampleN(rng.New(2), 3)
	if s.Len() != 3 {
		t.Fatalf("SampleN len %d", s.Len())
	}
	h := d.Head(2)
	if h.Len() != 2 || h.Labels[0] != d.Labels[0] {
		t.Fatal("Head must preserve order")
	}
	if d.Head(100).Len() != d.Len() {
		t.Fatal("Head beyond length must clamp")
	}
}

func TestGenerateMNISTLike(t *testing.T) {
	d, err := GenerateMNISTLike(rng.New(1), 100, DefaultMNISTLikeConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.Dim() != 784 || d.NumClasses != 10 {
		t.Fatalf("geometry dim=%d classes=%d", d.Dim(), d.NumClasses)
	}
	// Balanced classes.
	counts := make([]int, d.NumClasses)
	for _, l := range d.Labels {
		counts[l]++
	}
	for c, n := range counts {
		if n != 10 {
			t.Fatalf("class %d has %d samples, want 10", c, n)
		}
	}
	// Pixel range respected.
	for _, v := range d.X.Data() {
		if v < 0 || v > 1 {
			t.Fatalf("pixel %v out of [0,1]", v)
		}
	}
	// Images must contain real signal (strokes), not be blank.
	var bright int
	for _, v := range d.X.Row(0) {
		if v > 0.5 {
			bright++
		}
	}
	if bright < 5 {
		t.Fatal("rendered digit has almost no bright pixels")
	}
}

func TestGenerateMNISTLikeDeterministic(t *testing.T) {
	a, err := GenerateMNISTLike(rng.New(7), 20, DefaultMNISTLikeConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateMNISTLike(rng.New(7), 20, DefaultMNISTLikeConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !a.X.Equal(b.X, 0) {
		t.Fatal("same seed must reproduce identical data")
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("labels must be reproducible")
		}
	}
}

func TestGenerateMNISTLikeErrors(t *testing.T) {
	if _, err := GenerateMNISTLike(rng.New(1), 0, DefaultMNISTLikeConfig()); err == nil {
		t.Fatal("zero samples must error")
	}
	bad := DefaultMNISTLikeConfig()
	bad.Size = 0
	if _, err := GenerateMNISTLike(rng.New(1), 10, bad); err == nil {
		t.Fatal("zero size must error")
	}
}

func TestGenerateCIFARLike(t *testing.T) {
	d, err := GenerateCIFARLike(rng.New(1), 50, DefaultCIFARLikeConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.Dim() != 3072 || d.Channels != 3 {
		t.Fatalf("geometry dim=%d channels=%d", d.Dim(), d.Channels)
	}
	for _, v := range d.X.Data() {
		if v < 0 || v > 1 {
			t.Fatalf("pixel %v out of [0,1]", v)
		}
	}
}

func TestGenerateCIFARLikeDeterministic(t *testing.T) {
	a, err := GenerateCIFARLike(rng.New(3), 20, DefaultCIFARLikeConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateCIFARLike(rng.New(3), 20, DefaultCIFARLikeConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !a.X.Equal(b.X, 0) {
		t.Fatal("same seed must reproduce identical data")
	}
}

func TestLoadSynthetic(t *testing.T) {
	for _, kind := range []Kind{MNIST, CIFAR10} {
		tr, te, err := Load(kind, rng.New(5), LoadOptions{TrainN: 60, TestN: 20})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if tr.Len() != 60 || te.Len() != 20 {
			t.Fatalf("%v: sizes %d/%d", kind, tr.Len(), te.Len())
		}
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
		if err := te.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := Load(Kind(99), rng.New(1), LoadOptions{}); err == nil {
		t.Fatal("unknown kind must error")
	}
}

func TestKindString(t *testing.T) {
	if MNIST.String() != "mnist" || CIFAR10.String() != "cifar10" {
		t.Fatal("Kind.String mismatch")
	}
	if Kind(42).String() == "" {
		t.Fatal("unknown kind should still print")
	}
}

func TestFirstChannel(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	got := FirstChannel(v, 2, 2)
	if len(got) != 4 || got[3] != 4 {
		t.Fatalf("FirstChannel = %v", got)
	}
	// Must be a copy.
	got[0] = 99
	if v[0] == 99 {
		t.Fatal("FirstChannel must copy")
	}
}
