package stats

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// sortQuantile is the reference Quantile: sort a copy, then interpolate
// between the two order statistics around q·(n−1).
func sortQuantile(xs []float64, q float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	w := pos - float64(lo)
	return sorted[lo]*(1-w) + sorted[hi]*w
}

// checkQuantile compares Quantile with the sort reference: bit for bit
// unless the sample holds a -0 (whose tie with +0 a sort may break either
// way), then by value; a NaN answer must be a NaN. The input must be left
// as it was.
func checkQuantile(t *testing.T, xs []float64, q float64) {
	t.Helper()
	orig := append([]float64(nil), xs...)
	got, err := Quantile(xs, q)
	if err != nil {
		t.Fatal(err)
	}
	want := sortQuantile(xs, q)
	negZero := false
	for i, x := range xs {
		if math.Float64bits(x) != math.Float64bits(orig[i]) {
			t.Fatalf("Quantile modified its input at %d", i)
		}
		if x == 0 && math.Signbit(x) {
			negZero = true
		}
	}
	switch {
	case math.IsNaN(want):
		if !math.IsNaN(got) {
			t.Fatalf("n=%d q=%v: got %v, reference NaN", len(xs), q, got)
		}
	case negZero:
		if got != want {
			t.Fatalf("n=%d q=%v: got %v, reference %v", len(xs), q, got, want)
		}
	default:
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("n=%d q=%v: got %v (%#x), reference %v (%#x)",
				len(xs), q, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

func floatsBytes(xs ...float64) []byte {
	b := make([]byte, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
	return b
}

func FuzzQuantile(f *testing.F) {
	inf, nan := math.Inf(1), math.NaN()
	for _, xs := range [][]float64{
		{7},
		{nan},
		{3, 3, 3, 3},
		{1, 2, 2, 2, 3, 3, 9},
		{nan, 1, nan, -2, 5},
		{inf, -inf, 0, 4, inf},
		{-inf, -inf, 1},
		{math.Copysign(0, -1), 0, 0, math.Copysign(0, -1), 1},
		{5, 4, 3, 2, 1, 0, -1, -2, -3, -4, -5, -6, -7, -8, -9, -10, -11, -12, -13, -14, -15},
	} {
		for _, q := range []float64{0, 0.95, 1, 0.5, 0.25} {
			f.Add(floatsBytes(xs...), q)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, q float64) {
		n := len(data) / 8
		if n == 0 || math.IsNaN(q) {
			return
		}
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		for _, q := range []float64{q, 0, 0.95, 1} {
			checkQuantile(t, xs, q)
		}
	})
}

// TestQuantileMatchesSortReference covers the shapes the fuzz corpus
// cannot reach quickly: long samples, heavy ties, and orderings that
// defeat a median-of-three pivot.
func TestQuantileMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	qs := []float64{0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1}
	shapes := map[string]func(i, n int) float64{
		"random":   func(int, int) float64 { return rng.NormFloat64() * 100 },
		"ties":     func(int, int) float64 { return float64(rng.Intn(5)) },
		"zeros":    func(i, _ int) float64 { return float64(i%50/49) * rng.Float64() },
		"sorted":   func(i, _ int) float64 { return float64(i) },
		"reversed": func(i, n int) float64 { return float64(n - i) },
		"organ":    func(i, n int) float64 { return float64(min(i, n-i)) },
		"sawtooth": func(i, _ int) float64 { return float64(i % 17) },
		"constant": func(int, int) float64 { return 4.5 },
	}
	for _, name := range []string{"random", "ties", "zeros", "sorted", "reversed", "organ", "sawtooth", "constant"} {
		gen := shapes[name]
		for _, n := range []int{1, 2, 3, 12, 13, 100, 1001, 28000} {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = gen(i, n)
			}
			for _, q := range qs {
				t.Run(name, func(t *testing.T) { checkQuantile(t, xs, q) })
			}
		}
	}
}

// TestQuickselectPartitions checks the partition selection leaves
// behind, with budgets from 0 (sort at once) to ample.
func TestQuickselectPartitions(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(300)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(rng.Intn(n))
		}
		want := append([]float64(nil), xs...)
		sort.Float64s(want)
		k, budget := rng.Intn(n), trial%4
		if trial%4 == 3 {
			budget = 64
		}
		quickselect(xs, k, budget)
		if xs[k] != want[k] {
			t.Fatalf("n=%d k=%d budget=%d: a[k]=%v, want %v", n, k, budget, xs[k], want[k])
		}
		for i, x := range xs {
			if (i < k && x > xs[k]) || (i > k && x < xs[k]) {
				t.Fatalf("n=%d k=%d budget=%d: a[%d]=%v on the wrong side of %v", n, k, budget, i, x, xs[k])
			}
		}
	}
}

// BenchmarkQuantile95 measures one 95th percentile over a 39-month
// hourly meter's worth of samples, as Meter.Percentile95 does per
// cluster at Finalize.
func BenchmarkQuantile95(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 28000)
	for i := range xs {
		xs[i] = math.Exp(rng.NormFloat64()) * 1e4
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Quantile(xs, 0.95); err != nil {
			b.Fatal(err)
		}
	}
}
