package routing

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"powerroute/internal/cluster"
)

// testFleet builds the standard nine-cluster fleet with uniform state peaks.
func testFleet(t testing.TB) *cluster.Fleet {
	t.Helper()
	peaks := make([]float64, 51)
	for i := range peaks {
		peaks[i] = 20000
	}
	f, err := cluster.DeriveFleet(peaks, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// mkContext builds a routing context with uniform demand and room equal to
// capacity (relaxed constraints).
func mkContext(f *cluster.Fleet, demandPerState float64, prices []float64) *Context {
	ns, nc := len(f.States), len(f.Clusters)
	ctx := &Context{
		Demand:         make([]float64, ns),
		DecisionPrices: make([]float64, nc),
		Room:           make([]float64, nc),
		BurstRoom:      make([]float64, nc),
	}
	for s := range ctx.Demand {
		ctx.Demand[s] = demandPerState
	}
	copy(ctx.DecisionPrices, prices)
	for c, cl := range f.Clusters {
		ctx.Room[c] = float64(cl.Capacity)
	}
	return ctx
}

func mkAssign(f *cluster.Fleet) [][]float64 {
	assign := make([][]float64, len(f.States))
	for s := range assign {
		assign[s] = make([]float64, len(f.Clusters))
	}
	return assign
}

// totalAssigned sums an assignment and verifies conservation per state.
func totalAssigned(t *testing.T, ctx *Context, assign [][]float64) float64 {
	t.Helper()
	total := 0.0
	for s := range assign {
		row := 0.0
		for _, v := range assign[s] {
			if v < 0 {
				t.Fatalf("state %d: negative assignment", s)
			}
			row += v
		}
		if math.Abs(row-ctx.Demand[s]) > 1e-6*(1+ctx.Demand[s]) {
			t.Fatalf("state %d: assigned %v of demand %v", s, row, ctx.Demand[s])
		}
		total += row
	}
	return total
}

func flatPrices(n int, v float64) []float64 {
	p := make([]float64, n)
	for i := range p {
		p[i] = v
	}
	return p
}

func TestBaselineConservesDemand(t *testing.T) {
	f := testFleet(t)
	b := NewBaseline(f)
	ctx := mkContext(f, 1000, flatPrices(len(f.Clusters), 50))
	assign := mkAssign(f)
	if err := b.Allocate(ctx, assign); err != nil {
		t.Fatal(err)
	}
	totalAssigned(t, ctx, assign)
	if b.Name() != "akamai-baseline" {
		t.Errorf("Name = %q", b.Name())
	}
}

func TestBaselineLocality(t *testing.T) {
	f := testFleet(t)
	b := NewBaseline(f)
	ctx := mkContext(f, 1000, flatPrices(len(f.Clusters), 50))
	assign := mkAssign(f)
	if err := b.Allocate(ctx, assign); err != nil {
		t.Fatal(err)
	}
	// Massachusetts traffic flows mostly to the Boston cluster.
	var ma int
	for i, st := range f.States {
		if st.Code == "MA" {
			ma = i
		}
	}
	bos, _ := f.Index("MA")
	if assign[ma][bos] < 500 {
		t.Errorf("MA→Boston = %v of 1000, want the majority", assign[ma][bos])
	}
}

func TestBaselineIgnoresPrices(t *testing.T) {
	f := testFleet(t)
	b := NewBaseline(f)
	cheap := flatPrices(len(f.Clusters), 50)
	cheap[0] = 1 // make one cluster dramatically cheaper
	a1 := mkAssign(f)
	a2 := mkAssign(f)
	ctx1 := mkContext(f, 1000, flatPrices(len(f.Clusters), 50))
	ctx2 := mkContext(f, 1000, cheap)
	if err := b.Allocate(ctx1, a1); err != nil {
		t.Fatal(err)
	}
	if err := b.Allocate(ctx2, a2); err != nil {
		t.Fatal(err)
	}
	for s := range a1 {
		for c := range a1[s] {
			if a1[s][c] != a2[s][c] {
				t.Fatal("baseline allocation moved with prices")
			}
		}
	}
}

func TestBaselineSpillsWhenFull(t *testing.T) {
	f := testFleet(t)
	b := NewBaseline(f)
	ctx := mkContext(f, 1000, flatPrices(len(f.Clusters), 50))
	// Choke the Boston cluster.
	bos, _ := f.Index("MA")
	ctx.Room[bos] = 10
	assign := mkAssign(f)
	if err := b.Allocate(ctx, assign); err != nil {
		t.Fatal(err)
	}
	totalAssigned(t, ctx, assign)
	// Total Boston load stays within its room.
	var bosLoad float64
	for s := range assign {
		bosLoad += assign[s][bos]
	}
	if bosLoad > 10+1e-9 {
		t.Errorf("Boston load %v exceeds room 10", bosLoad)
	}
}

func TestOptimizerPrefersCheapest(t *testing.T) {
	f := testFleet(t)
	// Continental threshold: pure price routing.
	p, err := NewPriceOptimizer(f, 5000, DefaultPriceThreshold)
	if err != nil {
		t.Fatal(err)
	}
	prices := flatPrices(len(f.Clusters), 80)
	il, _ := f.Index("IL")
	prices[il] = 20 // Chicago far cheaper
	ctx := mkContext(f, 1000, prices)
	assign := mkAssign(f)
	if err := p.Allocate(ctx, assign); err != nil {
		t.Fatal(err)
	}
	totalAssigned(t, ctx, assign)
	var ilLoad, total float64
	for s := range assign {
		for c := range assign[s] {
			total += assign[s][c]
			if c == il {
				ilLoad += assign[s][c]
			}
		}
	}
	// Chicago absorbs everything up to its capacity, except demand from
	// states with no cluster in range even at 5000 km (Hawaii's fallback
	// pins it to California).
	wantIL := math.Min(float64(f.Clusters[il].Capacity), total-1000)
	if ilLoad < wantIL-1e-6 {
		t.Errorf("Chicago load = %v, want ≥ %v (cheapest-first)", ilLoad, wantIL)
	}
}

func TestOptimizerRespectsDistanceThreshold(t *testing.T) {
	f := testFleet(t)
	p, err := NewPriceOptimizer(f, 500, DefaultPriceThreshold)
	if err != nil {
		t.Fatal(err)
	}
	prices := flatPrices(len(f.Clusters), 80)
	ca1, _ := f.Index("CA1")
	prices[ca1] = 1 // California nearly free
	ctx := mkContext(f, 1000, prices)
	assign := mkAssign(f)
	if err := p.Allocate(ctx, assign); err != nil {
		t.Fatal(err)
	}
	totalAssigned(t, ctx, assign)
	// Massachusetts (far beyond 500 km of CA1) must not chase the price.
	var ma int
	for i, st := range f.States {
		if st.Code == "MA" {
			ma = i
		}
	}
	if assign[ma][ca1] != 0 {
		t.Errorf("MA sent %v to California despite 500 km threshold", assign[ma][ca1])
	}
}

func TestOptimizerDeadBandPrefersProximity(t *testing.T) {
	f := testFleet(t)
	p, err := NewPriceOptimizer(f, 5000, 5)
	if err != nil {
		t.Fatal(err)
	}
	// All prices within $5 of each other: distance decides, so MA load
	// stays in Boston even though NJ is $3 cheaper.
	prices := flatPrices(len(f.Clusters), 50)
	nj, _ := f.Index("NJ")
	bos, _ := f.Index("MA")
	prices[nj] = 47
	ctx := mkContext(f, 1000, prices)
	assign := mkAssign(f)
	if err := p.Allocate(ctx, assign); err != nil {
		t.Fatal(err)
	}
	var ma int
	for i, st := range f.States {
		if st.Code == "MA" {
			ma = i
		}
	}
	if assign[ma][bos] < 999 {
		t.Errorf("MA→Boston = %v; $3 differential should be ignored (dead band)", assign[ma][bos])
	}
	// Beyond the dead band the cheaper cluster wins.
	prices[nj] = 40
	ctx = mkContext(f, 1000, prices)
	assign = mkAssign(f)
	if err := p.Allocate(ctx, assign); err != nil {
		t.Fatal(err)
	}
	if assign[ma][nj] < 999 {
		t.Errorf("MA→NJ = %v; $10 differential should move traffic", assign[ma][nj])
	}
}

func TestOptimizerWalksToNextWhenFull(t *testing.T) {
	f := testFleet(t)
	p, err := NewPriceOptimizer(f, 5000, 5)
	if err != nil {
		t.Fatal(err)
	}
	prices := flatPrices(len(f.Clusters), 80)
	il, _ := f.Index("IL")
	va, _ := f.Index("VA")
	prices[il] = 20
	prices[va] = 30
	ctx := mkContext(f, 1000, prices)
	ctx.Room[il] = 5000 // tiny room at the cheapest
	assign := mkAssign(f)
	if err := p.Allocate(ctx, assign); err != nil {
		t.Fatal(err)
	}
	totalAssigned(t, ctx, assign)
	var ilLoad, vaLoad float64
	for s := range assign {
		ilLoad += assign[s][il]
		vaLoad += assign[s][va]
	}
	if ilLoad > 5000+1e-9 {
		t.Errorf("Chicago overfilled: %v", ilLoad)
	}
	if vaLoad < 20000 {
		t.Errorf("Virginia (next cheapest) got %v, want the bulk", vaLoad)
	}
}

func TestOptimizerBurstTier(t *testing.T) {
	f := testFleet(t)
	p, err := NewPriceOptimizer(f, 5000, 5)
	if err != nil {
		t.Fatal(err)
	}
	prices := flatPrices(len(f.Clusters), 50)
	ctx := mkContext(f, 1000, prices)
	// Preferred rooms too small for total demand; burst room makes up.
	for c := range ctx.Room {
		ctx.BurstRoom[c] = ctx.Room[c]
		ctx.Room[c] = 3000
	}
	assign := mkAssign(f)
	if err := p.Allocate(ctx, assign); err != nil {
		t.Fatal(err)
	}
	totalAssigned(t, ctx, assign)
}

func TestOptimizerStrandedFallback(t *testing.T) {
	// Alaska's candidates (nearest cluster) may be full; demand must walk
	// to other clusters rather than vanish or overload.
	f := testFleet(t)
	p, err := NewPriceOptimizer(f, 100, 5) // tiny threshold: fallback paths everywhere
	if err != nil {
		t.Fatal(err)
	}
	prices := flatPrices(len(f.Clusters), 50)
	ctx := mkContext(f, 1000, prices)
	ca1, _ := f.Index("CA1")
	ca2, _ := f.Index("CA2")
	ctx.Room[ca1] = 0
	ctx.Room[ca2] = 0
	assign := mkAssign(f)
	if err := p.Allocate(ctx, assign); err != nil {
		t.Fatal(err)
	}
	totalAssigned(t, ctx, assign)
	var ak int
	for i, st := range f.States {
		if st.Code == "AK" {
			ak = i
		}
	}
	if assign[ak][ca1]+assign[ak][ca2] != 0 {
		t.Error("Alaska assigned to full California clusters")
	}
}

func TestOptimizerConstructorErrors(t *testing.T) {
	f := testFleet(t)
	if _, err := NewPriceOptimizer(f, -1, 5); err == nil {
		t.Error("negative distance should fail")
	}
	if _, err := NewPriceOptimizer(f, 100, -5); err == nil {
		t.Error("negative price threshold should fail")
	}
	p, _ := NewPriceOptimizer(f, 1500, 5)
	if p.ThresholdKm() != 1500 {
		t.Error("ThresholdKm wrong")
	}
	if p.Name() == "" {
		t.Error("empty name")
	}
}

func TestAllToOne(t *testing.T) {
	f := testFleet(t)
	il, _ := f.Index("IL")
	a, err := NewAllToOne(f, il)
	if err != nil {
		t.Fatal(err)
	}
	if a.Name() != "static-IL" {
		t.Errorf("Name = %q", a.Name())
	}
	ctx := mkContext(f, 1000, flatPrices(len(f.Clusters), 50))
	// Give the target unbounded room so everything fits.
	ctx.Room[il] = 1e12
	assign := mkAssign(f)
	if err := a.Allocate(ctx, assign); err != nil {
		t.Fatal(err)
	}
	total := totalAssigned(t, ctx, assign)
	var ilLoad float64
	for s := range assign {
		ilLoad += assign[s][il]
	}
	if math.Abs(ilLoad-total) > 1e-6 {
		t.Errorf("static policy leaked load: %v of %v at target", ilLoad, total)
	}
	if _, err := NewAllToOne(f, -1); err == nil {
		t.Error("negative target should fail")
	}
	if _, err := NewAllToOne(f, 99); err == nil {
		t.Error("out-of-range target should fail")
	}
}

func TestValidateDimensions(t *testing.T) {
	f := testFleet(t)
	b := NewBaseline(f)
	ctx := mkContext(f, 1000, flatPrices(len(f.Clusters), 50))
	bad := mkAssign(f)[:10]
	if err := b.Allocate(ctx, bad); err == nil {
		t.Error("short assign matrix should fail")
	}
	ctx.Demand = ctx.Demand[:5]
	if err := b.Allocate(ctx, mkAssign(f)); err == nil {
		t.Error("short demand should fail")
	}
	ctx = mkContext(f, 1000, flatPrices(len(f.Clusters), 50))
	ctx.DecisionPrices = ctx.DecisionPrices[:3]
	if err := b.Allocate(ctx, mkAssign(f)); err == nil {
		t.Error("short prices should fail")
	}
	ctx = mkContext(f, 1000, flatPrices(len(f.Clusters), 50))
	ctx.Room = ctx.Room[:2]
	if err := b.Allocate(ctx, mkAssign(f)); err == nil {
		t.Error("short room should fail")
	}
}

func TestZeroDemandSkipped(t *testing.T) {
	f := testFleet(t)
	p, _ := NewPriceOptimizer(f, 1500, 5)
	ctx := mkContext(f, 0, flatPrices(len(f.Clusters), 50))
	assign := mkAssign(f)
	if err := p.Allocate(ctx, assign); err != nil {
		t.Fatal(err)
	}
	for s := range assign {
		for c := range assign[s] {
			if assign[s][c] != 0 {
				t.Fatal("zero demand produced assignments")
			}
		}
	}
}

func TestApplyPriceCaps(t *testing.T) {
	prices := []float64{30, 80, 120, 50}
	caps := []float64{math.Inf(1), 60, 120, 40}
	ApplyPriceCaps(prices, caps)
	want := []float64{30, 60, 120, 40}
	for i := range want {
		if prices[i] != want[i] {
			t.Errorf("prices[%d] = %v, want %v", i, prices[i], want[i])
		}
	}
	// A short caps vector leaves the uncovered tail untouched.
	prices = []float64{10, 20}
	ApplyPriceCaps(prices, []float64{5})
	if prices[0] != 5 || prices[1] != 20 {
		t.Errorf("short caps: prices = %v, want [5 20]", prices)
	}
}

// TestPreferenceOrderMatchesStableSort cross-checks the hand-rolled
// insertion sort in preferenceOrder against sort.SliceStable with the same
// comparator, over randomized prices with deliberate ties — the hot-path
// rewrite must be permutation-identical, since routing determinism (and
// the byte-identical experiment registry) depends on it.
func TestPreferenceOrderMatchesStableSort(t *testing.T) {
	fleet := testFleet(t)
	opt, err := NewPriceOptimizer(fleet, 2500, DefaultPriceThreshold)
	if err != nil {
		t.Fatal(err)
	}
	nc := len(fleet.Clusters)
	rng := rand.New(rand.NewSource(99))
	prices := make([]float64, nc)
	for trial := 0; trial < 200; trial++ {
		for c := range prices {
			// Coarse quantization forces frequent price ties so the
			// stability tiebreak (distance) is actually exercised.
			prices[c] = 20 + 5*float64(rng.Intn(8))
		}
		for s := range fleet.States {
			got := opt.preferenceOrder(s, prices, nil)

			cands := opt.candidates[s]
			pmin := prices[cands[0]]
			for _, c := range cands[1:] {
				if prices[c] < pmin {
					pmin = prices[c]
				}
			}
			cutoff := pmin + opt.priceThreshold
			var want []int
			for _, c := range cands {
				if prices[c] <= cutoff {
					want = append(want, c)
				}
			}
			head := len(want)
			for _, c := range cands {
				if prices[c] > cutoff {
					want = append(want, c)
				}
			}
			rest := want[head:]
			dist := fleet.DistanceKm[s]
			sort.SliceStable(rest, func(i, j int) bool {
				if prices[rest[i]] != prices[rest[j]] {
					return prices[rest[i]] < prices[rest[j]]
				}
				return dist[rest[i]] < dist[rest[j]]
			})
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d state %d: order %v, stable-sort reference %v (prices %v)",
					trial, s, got, want, prices)
			}
		}
	}
}
