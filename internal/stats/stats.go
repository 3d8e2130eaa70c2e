// Package stats implements the descriptive statistics the paper's empirical
// market analysis relies on (§3): moments (including 1%-trimmed versions and
// kurtosis, Fig 6–7, 10), quantiles and inter-quartile ranges (Fig 11–12),
// histograms (Fig 7, 10, 13), Pearson correlation (Fig 8), mutual
// information (§3.2 footnote 8), and windowed volatility (Fig 5).
//
// Everything operates on plain []float64 so the package has no dependencies
// beyond the standard library.
package stats

import (
	"errors"
	"math"
	"math/bits"
	"sort"
)

// ErrEmpty is returned by functions that need at least one sample.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs (denominator n), or 0 for
// fewer than two samples.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Kurtosis returns the (raw, non-excess) kurtosis μ₄/σ⁴ of xs. A Gaussian
// has kurtosis 3; the paper reports values from 4.6 (Chicago prices) to 466
// (Austin−Virginia differentials), i.e. very heavy tails. Returns 0 for
// fewer than two samples or zero variance.
func Kurtosis(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var m2, m4 float64
	for _, x := range xs {
		d := x - m
		d2 := d * d
		m2 += d2
		m4 += d2 * d2
	}
	n := float64(len(xs))
	m2 /= n
	m4 /= n
	if m2 == 0 {
		return 0
	}
	return m4 / (m2 * m2)
}

// Skewness returns the standardized third moment of xs.
func Skewness(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var m2, m3 float64
	for _, x := range xs {
		d := x - m
		m2 += d * d
		m3 += d * d * d
	}
	n := float64(len(xs))
	m2 /= n
	m3 /= n
	if m2 == 0 {
		return 0
	}
	return m3 / math.Pow(m2, 1.5)
}

// Summary bundles the moments the paper tabulates per location (Fig 6).
type Summary struct {
	N        int
	Mean     float64
	StdDev   float64
	Kurtosis float64
	Min      float64
	Max      float64
}

// Summarize computes a Summary over xs.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	s.Mean = Mean(xs)
	s.StdDev = StdDev(xs)
	s.Kurtosis = Kurtosis(xs)
	s.Min, s.Max = xs[0], xs[0]
	for _, x := range xs {
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	return s
}

// Trim returns a copy of xs with the lowest and highest frac/2 fraction of
// samples removed (so Trim(xs, 0.01) discards 1% of the data in total,
// matching the paper's "1% trimmed" statistics in Fig 6). frac is clamped
// to [0, 0.5].
func Trim(xs []float64, frac float64) []float64 {
	if frac < 0 {
		frac = 0
	}
	if frac > 0.5 {
		frac = 0.5
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	k := int(math.Round(float64(len(sorted)) * frac / 2))
	if 2*k >= len(sorted) {
		return nil
	}
	return sorted[k : len(sorted)-k]
}

// TrimmedSummary computes Summarize over the trimmed sample.
func TrimmedSummary(xs []float64, frac float64) Summary {
	return Summarize(Trim(xs, frac))
}

// Quantile returns the q-th quantile of xs (0 ≤ q ≤ 1) using linear
// interpolation between order statistics. It returns an error for an empty
// sample; q is clamped to [0,1]. NaNs order first, as in sort.Float64s.
//
// Only the two order statistics around q·(n−1) are needed, so Quantile
// selects them in expected linear time instead of sorting: the lower one
// by quickselect, the upper one as the least element above it. The result
// equals Quantiles(xs, q)[0]: the same order statistics and the same
// interpolation. (Where signed zeros or NaN payloads tie, the chosen
// element may differ in sign or payload, never in value.)
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	buf := append([]float64(nil), xs...)
	pos, lo, hi := quantileRank(len(buf), q)
	selectNth(buf, lo)
	if lo == hi {
		return buf[lo], nil
	}
	// The upper neighbor is the least element after lo. Were any of them
	// NaN, buf[lo] would be NaN too and so would the result, so plain <
	// suffices.
	next := buf[lo+1]
	for _, x := range buf[lo+2:] {
		if x < next {
			next = x
		}
	}
	return lerp(buf[lo], next, pos-float64(lo)), nil
}

// quantileRank clamps q to [0,1] and returns its fractional rank
// q·(n−1) in a sample of n, with the order statistics on either side.
func quantileRank(n int, q float64) (pos float64, lo, hi int) {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	pos = q * float64(n-1)
	return pos, int(math.Floor(pos)), int(math.Ceil(pos))
}

// lerp interpolates linearly from a (w = 0) to b (w = 1).
func lerp(a, b, w float64) float64 { return a*(1-w) + b*w }

// selectNth reorders a so that a[k] holds the element sort.Float64s would
// put there, with a[:k] ordered no later and a[k+1:] no earlier.
func selectNth(a []float64, k int) {
	// NaNs order first: gather them at the front, then select among the
	// numbers with plain comparisons.
	nan := 0
	for i, x := range a {
		if x != x {
			a[i], a[nan] = a[nan], x
			nan++
		}
	}
	if k < nan {
		return
	}
	quickselect(a[nan:], k-nan, 2*bits.Len(uint(len(a))))
}

// quickselect is selectNth for a NaN-free slice: Hoare-style partitioning
// around a median-of-three pivot. Ties split on both sides, so runs of
// equal samples stay linear; after budget rounds, adversarial inputs fall
// back to sorting what is left.
func quickselect(a []float64, k, budget int) {
	lo, hi := 0, len(a)-1
	for ; lo < hi; budget-- {
		if budget == 0 {
			sort.Float64s(a[lo : hi+1])
			return
		}
		pivot := median3(a[lo], a[lo+(hi-lo)/2], a[hi])
		i, j := lo, hi
		for i <= j {
			for a[i] < pivot {
				i++
			}
			for a[j] > pivot {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		// Now a[lo:j+1] ≤ pivot, a[i:hi+1] ≥ pivot, and anything between
		// equals pivot.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
}

func median3(a, b, c float64) float64 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		return a
	}
	return b
}

// quantileSorted computes the interpolated quantile of an already-sorted
// non-empty slice.
func quantileSorted(sorted []float64, q float64) float64 {
	pos, lo, hi := quantileRank(len(sorted), q)
	if lo == hi {
		return sorted[lo]
	}
	return lerp(sorted[lo], sorted[hi], pos-float64(lo))
}

// Quantiles returns several quantiles of xs in one sort.
func Quantiles(xs []float64, qs ...float64) ([]float64, error) {
	if len(xs) == 0 {
		return nil, ErrEmpty
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = quantileSorted(sorted, q)
	}
	return out, nil
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) (float64, error) { return Quantile(xs, 0.5) }

// IQR describes a distribution by its median and inter-quartile range, the
// representation used by the paper's monthly and hour-of-day differential
// plots (Fig 11, 12).
type IQR struct {
	Q25, Median, Q75 float64
}

// ComputeIQR returns the quartiles of xs.
func ComputeIQR(xs []float64) (IQR, error) {
	qs, err := Quantiles(xs, 0.25, 0.5, 0.75)
	if err != nil {
		return IQR{}, err
	}
	return IQR{Q25: qs[0], Median: qs[1], Q75: qs[2]}, nil
}

// Correlation returns the Pearson correlation coefficient of the paired
// samples xs and ys. It returns 0 when either side has zero variance and an
// error when the lengths differ or the sample is empty.
func Correlation(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, errors.New("stats: correlation length mismatch")
	}
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx := xs[i] - mx
		dy := ys[i] - my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, nil
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// Autocorrelation returns the lag-k autocorrelation of xs.
func Autocorrelation(xs []float64, lag int) (float64, error) {
	if lag < 0 || lag >= len(xs) {
		return 0, errors.New("stats: invalid lag")
	}
	return Correlation(xs[:len(xs)-lag], xs[lag:])
}

// Diff returns the successive differences xs[i+1]-xs[i]; the paper's
// hour-to-hour price change distributions (Fig 7) are Diff applied to an
// hourly price series.
func Diff(xs []float64) []float64 {
	if len(xs) < 2 {
		return nil
	}
	out := make([]float64, len(xs)-1)
	for i := 1; i < len(xs); i++ {
		out[i-1] = xs[i] - xs[i-1]
	}
	return out
}

// FractionWithin returns the fraction of samples with |x| ≤ bound, as used
// in Fig 7's "78% of samples within ±$20" annotations.
func FractionWithin(xs []float64, bound float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, x := range xs {
		if math.Abs(x) <= bound {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// FractionBelow returns the fraction of samples strictly below threshold.
func FractionBelow(xs []float64, threshold float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, x := range xs {
		if x < threshold {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// WindowMeans averages xs over consecutive non-overlapping windows of the
// given size, discarding any incomplete trailing window. Fig 5 applies this
// with windows of 1–24 hours before taking standard deviations.
func WindowMeans(xs []float64, window int) []float64 {
	if window <= 0 || len(xs) < window {
		return nil
	}
	n := len(xs) / window
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = Mean(xs[i*window : (i+1)*window])
	}
	return out
}
