// The offline dispatch oracle: a dynamic program over a full price trace
// with discretized state of charge. Where every Policy in this package
// decides from the current interval only, the oracle sees the whole future
// and computes the cheapest feasible dispatch outright — the yardstick the
// ext-optimal experiment measures the online policies against, and the
// "offline optimum" whose neighborhood Urgaonkar et al.'s Lyapunov
// controller provably reaches.
package storage

import (
	"fmt"
	"math"
)

// OptimalResult reports one cluster's offline-optimal dispatch.
type OptimalResult struct {
	// BaseUSD is the bill with the battery idle: Σ price·itLoad·Δ.
	BaseUSD float64
	// CostUSD is the minimal achievable bill over the trace — BaseUSD plus
	// the (usually negative) optimal arbitrage adjustment.
	CostUSD float64
	// BoughtKWh totals the grid energy bought into the battery along the
	// optimal path.
	BoughtKWh float64
	// ServedKWh totals the load energy the battery served along the
	// optimal path.
	ServedKWh float64
}

// OptimalDispatch computes the offline-optimal battery dispatch for one
// cluster by dynamic programming: prices[t] is the real-time price
// ($/MWh) and itLoadKW[t] the cluster's IT draw (kW) for each interval of
// stepHours hours, and the battery's state of charge is discretized onto
// `levels`+1 grid points spanning [0, CapacityKWh]. Per interval the
// program may hold, charge (grid draw ≤ MaxChargeKW, losses on the charge
// leg), or discharge (≤ MaxDischargeKW and ≤ the IT draw — the grid meter
// never runs backwards, same rule the engine enforces), and the returned
// CostUSD is the cheapest total bill over every feasible SoC trajectory.
//
// The discretization makes this a *restricted* optimum: the true
// continuous optimum can only be lower, and it converges as levels grows.
// At the levels the ext-optimal experiment uses, the residual is far below
// the gaps between policies. The program is deterministic — ties between
// equal-cost trajectories break toward the lower SoC index, never by map
// order or randomness — so the reported oracle bound is bit-identical
// across runs, shards, and machines.
//
// The IT-load trajectory must come from a run whose routing does not react
// to storage (Config.RoutingAware = false): then loads are independent of
// dispatch and the per-cluster bound is exact for the fleet.
func OptimalDispatch(b Battery, prices, itLoadKW []float64, stepHours float64, levels int) (OptimalResult, error) {
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
	// upCost[k] and downCost[k] are this interval's cost of moving k grid
	// steps up or down, filled once per interval so the transition loop
	// only adds.
	upCost := make([]float64, maxUp+1)
	downCost := make([]float64, maxDown+1)
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
		for k := 1; k <= maxUp; k++ {
			// Grid pays for the stored gain plus the charge-leg loss.
			upCost[k] = price * float64(k) * q / eta / 1000
		}
		for k := 1; k <= downT; k++ {
			// Served load offsets grid draw, net of the discharge-leg loss.
			downCost[k] = price * float64(k) * q * eta / 1000
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
			// Strict < breaks ties toward the lower predecessor level l
			// (scanned ascending), keeping the traceback deterministic.
			// Discharge, hold and charge run as separate loops: a single
			// loop branching on m against l ran 1.4–2x slower in
			// BenchmarkOptimalDispatch.
			for m := lo; m < l; m++ {
				if c := base - downCost[l-m]; c < next[m] {
					next[m] = c
					row[m] = int16(l)
				}
			}
			if base < next[l] {
				next[l] = base
				row[l] = int16(l)
			}
			for m := l + 1; m <= hi; m++ {
				if c := base + upCost[m-l]; c < next[m] {
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
