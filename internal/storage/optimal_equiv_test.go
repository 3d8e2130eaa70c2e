package storage

import (
	"fmt"
	"math"
	"testing"
)

// optimalDispatchUnhoisted is the reference oracle: OptimalDispatch as it
// was before the per-interval transition costs were hoisted out of the
// inner loop, kept verbatim so the equivalence test below can pin the
// rewrite bit for bit.
func optimalDispatchUnhoisted(b Battery, prices, itLoadKW []float64, stepHours float64, levels int) (OptimalResult, error) {
	var res OptimalResult
	if err := b.Validate(); err != nil {
		return res, err
	}
	if len(prices) == 0 || len(prices) != len(itLoadKW) {
		return res, fmt.Errorf("storage: oracle has %d prices for %d load samples", len(prices), len(itLoadKW))
	}
	if !(stepHours > 0) || math.IsInf(stepHours, 1) {
		return res, fmt.Errorf("storage: step length %v hours must be positive and finite", stepHours)
	}
	if levels < 1 || levels > 4096 {
		return res, fmt.Errorf("storage: SoC discretization %d outside [1, 4096]", levels)
	}
	for t := range prices {
		if math.IsNaN(prices[t]) || math.IsInf(prices[t], 0) {
			return res, fmt.Errorf("storage: non-finite price %v at step %d", prices[t], t)
		}
		if math.IsNaN(itLoadKW[t]) || math.IsInf(itLoadKW[t], 0) || itLoadKW[t] < 0 {
			return res, fmt.Errorf("storage: invalid IT load %v kW at step %d", itLoadKW[t], t)
		}
		res.BaseUSD += prices[t] * itLoadKW[t] * stepHours / 1000
	}
	if b.IsZero() || (b.MaxChargeKW == 0 && b.MaxDischargeKW == 0) {
		// No usable battery: the oracle is the idle bill.
		res.CostUSD = res.BaseUSD
		return res, nil
	}

	q := b.CapacityKWh / float64(levels) // kWh per SoC grid step
	eta := b.onewayEfficiency()
	// Per-interval reach on the SoC grid. Charging at full rate adds
	// η·Rmax·Δ of stored energy; discharging at full rate removes
	// (Dmax·Δ)/η. The floor under-uses the last fractional grid step — part
	// of the documented discretization error.
	maxUp := int(eta * b.MaxChargeKW * stepHours / q)
	maxDown := int(b.MaxDischargeKW * stepHours / (eta * q))
	if b.MaxChargeKW > 0 && maxUp == 0 {
		return res, fmt.Errorf("storage: %d SoC levels cannot resolve a %v kW charge rate over %v h (grid step %v kWh)",
			levels, b.MaxChargeKW, stepHours, q)
	}
	if b.MaxDischargeKW > 0 && maxDown == 0 {
		return res, fmt.Errorf("storage: %d SoC levels cannot resolve a %v kW discharge rate over %v h (grid step %v kWh)",
			levels, b.MaxDischargeKW, stepHours, q)
	}

	n := levels + 1
	inf := math.Inf(1)
	cur := make([]float64, n)
	next := make([]float64, n)
	// from[t*n+m] is the SoC level the optimal path to (t+1, m) left; int16
	// holds any level index (levels ≤ 4096 < 2^15).
	from := make([]int16, len(prices)*n)
	for i := range cur {
		cur[i] = inf
	}
	l0 := int(math.Round(b.InitialSoC * float64(levels)))
	cur[l0] = 0

	for t := range prices {
		price := prices[t]
		// No grid export: the battery may serve at most the IT draw.
		downT := maxDown
		if fromLoad := int(itLoadKW[t] * stepHours / (eta * q)); fromLoad < downT {
			downT = fromLoad
		}
		for i := range next {
			next[i] = inf
		}
		row := from[t*n : (t+1)*n]
		for l := 0; l < n; l++ {
			base := cur[l]
			if math.IsInf(base, 1) {
				continue
			}
			lo := l - downT
			if lo < 0 {
				lo = 0
			}
			hi := l + maxUp
			if hi > levels {
				hi = levels
			}
			for m := lo; m <= hi; m++ {
				c := base
				if m > l {
					// Grid pays for the stored gain plus the charge-leg loss.
					c += price * float64(m-l) * q / eta / 1000
				} else if m < l {
					// Served load offsets grid draw, net of the discharge-leg loss.
					c -= price * float64(l-m) * q * eta / 1000
				}
				// Strict < breaks ties toward the lower predecessor level l
				// (scanned ascending), keeping the traceback deterministic.
				if c < next[m] {
					next[m] = c
					row[m] = int16(l)
				}
			}
		}
		cur, next = next, cur
	}

	// Cheapest terminal state; ties again break toward the lower SoC index.
	best, bestL := inf, 0
	for l := 0; l < n; l++ {
		if cur[l] < best {
			best, bestL = cur[l], l
		}
	}
	res.CostUSD = res.BaseUSD + best

	// Trace the optimal trajectory back to total its energy movements.
	l := bestL
	for t := len(prices) - 1; t >= 0; t-- {
		p := int(from[t*n+l])
		if l > p {
			res.BoughtKWh += float64(l-p) * q / eta
		} else if l < p {
			res.ServedKWh += float64(p-l) * q * eta
		}
		l = p
	}
	return res, nil
}

// TestOptimalDispatchMatchesUnhoisted compares the oracle with the
// unhoisted reference on randomized batteries, grids and traces,
// including idle intervals (zero IT load, so no discharge reach),
// negative prices, and coarse prices that make equal-cost trajectories
// common. All four result fields must agree bit for bit.
func TestOptimalDispatchMatchesUnhoisted(t *testing.T) {
	rng := lcg(21)
	solved := 0
	for trial := 0; trial < 200; trial++ {
		b := Battery{
			CapacityKWh:         1 + 20*rng.next(),
			MaxChargeKW:         0.5 + 5*rng.next(),
			MaxDischargeKW:      0.5 + 5*rng.next(),
			RoundTripEfficiency: []float64{0, 1, 0.85, 0.5 + 0.5*rng.next()}[trial%4],
			InitialSoC:          []float64{0, 0.5, 1, rng.next()}[trial/4%4],
		}
		levels := 1 + int(120*rng.next())
		stepHours := []float64{1, 1.0 / 12, 0.25 + rng.next()}[trial%3]
		n := 1 + int(200*rng.next())
		prices := make([]float64, n)
		it := make([]float64, n)
		for i := range prices {
			prices[i] = 150*rng.next() - 20
			if trial%3 == 0 {
				// Few distinct prices, zero among them: many trajectories
				// tie on cost, so the tie-break decides the traceback.
				prices[i] = float64(int(3*rng.next())) * 25
			}
			if rng.next() < 0.2 {
				continue // an idle interval: the battery cannot serve
			}
			it[i] = 8 * rng.next()
		}
		got, gotErr := OptimalDispatch(b, prices, it, stepHours, levels)
		want, wantErr := optimalDispatchUnhoisted(b, prices, it, stepHours, levels)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("trial %d: error %v, reference %v", trial, gotErr, wantErr)
		}
		if gotErr == nil {
			solved++
		}
		for _, f := range []struct {
			name      string
			got, want float64
		}{
			{"BaseUSD", got.BaseUSD, want.BaseUSD},
			{"CostUSD", got.CostUSD, want.CostUSD},
			{"BoughtKWh", got.BoughtKWh, want.BoughtKWh},
			{"ServedKWh", got.ServedKWh, want.ServedKWh},
		} {
			if math.Float64bits(f.got) != math.Float64bits(f.want) {
				t.Fatalf("trial %d (%+v, %d levels, %d steps): %s = %v, reference %v",
					trial, b, levels, n, f.name, f.got, f.want)
			}
		}
	}
	// Grids too coarse for a battery's rates are rejected by both; most
	// trials must still reach the dynamic program.
	if solved < 150 {
		t.Errorf("only %d of 200 trials solved", solved)
	}
}

// BenchmarkOptimalDispatch runs the oracle at the ext-optimal setting:
// a 39-month hourly trace on a 100-level grid with 13 steps of charge and
// 16 of discharge reach per hour.
func BenchmarkOptimalDispatch(b *testing.B) {
	bat := Battery{CapacityKWh: 1000, MaxChargeKW: 150, MaxDischargeKW: 150, RoundTripEfficiency: 0.85}
	rng := lcg(3)
	prices := make([]float64, 28000)
	it := make([]float64, len(prices))
	for i := range prices {
		prices[i] = 20 + 80*rng.next()
		it[i] = 300 + 400*rng.next()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := OptimalDispatch(bat, prices, it, 1, 100); err != nil {
			b.Fatal(err)
		}
	}
}
