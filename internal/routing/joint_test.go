package routing

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

func TestJointOptimizerExtremes(t *testing.T) {
	f := testFleet(t)
	prices := flatPrices(len(f.Clusters), 80)
	il, _ := f.Index("IL")
	prices[il] = 20

	// Weight 0: pure price routing — everything in reach piles onto the
	// cheapest cluster, exactly like the price optimizer without bounds.
	j0, err := NewJointOptimizer(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := mkContext(f, 1000, prices)
	assign := mkAssign(f)
	if err := j0.Allocate(ctx, assign); err != nil {
		t.Fatal(err)
	}
	total := totalAssigned(t, ctx, assign)
	var ilLoad float64
	for s := range assign {
		ilLoad += assign[s][il]
	}
	want := math.Min(float64(f.Clusters[il].Capacity), total)
	if math.Abs(ilLoad-want) > 1e-6*want {
		t.Errorf("w=0: Chicago load %v, want %v", ilLoad, want)
	}

	// Huge weight: proximity routing — Massachusetts stays in Boston no
	// matter the price.
	jInf, err := NewJointOptimizer(f, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	ctx = mkContext(f, 1000, prices)
	assign = mkAssign(f)
	if err := jInf.Allocate(ctx, assign); err != nil {
		t.Fatal(err)
	}
	totalAssigned(t, ctx, assign)
	var ma int
	for i, st := range f.States {
		if st.Code == "MA" {
			ma = i
		}
	}
	bos, _ := f.Index("MA")
	if assign[ma][bos] < 999 {
		t.Errorf("w=inf: MA→Boston %v, want all", assign[ma][bos])
	}
}

func TestJointOptimizerTradesOff(t *testing.T) {
	f := testFleet(t)
	prices := flatPrices(len(f.Clusters), 80)
	il, _ := f.Index("IL")
	prices[il] = 30 // $50 cheaper than everywhere else

	var ma int
	for i, st := range f.States {
		if st.Code == "MA" {
			ma = i
		}
	}
	// MA→IL is ~1350 km farther than MA→Boston. At w=0.01 the detour
	// costs ~$13.5-equivalent against a $50 price edge: go. At w=0.1 it
	// costs ~$135: stay.
	for _, c := range []struct {
		w    float64
		toIL bool
	}{
		{0.01, true},
		{0.1, false},
	} {
		j, err := NewJointOptimizer(f, c.w)
		if err != nil {
			t.Fatal(err)
		}
		ctx := mkContext(f, 1000, prices)
		assign := mkAssign(f)
		if err := j.Allocate(ctx, assign); err != nil {
			t.Fatal(err)
		}
		wentIL := assign[ma][il] > 500
		if wentIL != c.toIL {
			t.Errorf("w=%v: MA→IL=%v, want %v", c.w, assign[ma][il], c.toIL)
		}
	}
}

func TestJointOptimizerRespectsRoom(t *testing.T) {
	f := testFleet(t)
	prices := flatPrices(len(f.Clusters), 80)
	il, _ := f.Index("IL")
	prices[il] = 20
	j, _ := NewJointOptimizer(f, 0)
	ctx := mkContext(f, 1000, prices)
	ctx.Room[il] = 2000
	assign := mkAssign(f)
	if err := j.Allocate(ctx, assign); err != nil {
		t.Fatal(err)
	}
	totalAssigned(t, ctx, assign)
	var ilLoad float64
	for s := range assign {
		ilLoad += assign[s][il]
	}
	if ilLoad > 2000+1e-9 {
		t.Errorf("room violated: %v", ilLoad)
	}
}

func TestJointOptimizerValidation(t *testing.T) {
	f := testFleet(t)
	if _, err := NewJointOptimizer(f, -1); err == nil {
		t.Error("negative weight should fail")
	}
	j, _ := NewJointOptimizer(f, 0.05)
	if j.DistanceWeight() != 0.05 {
		t.Error("DistanceWeight wrong")
	}
	if j.Name() == "" {
		t.Error("empty name")
	}
	ctx := mkContext(f, 1000, flatPrices(len(f.Clusters), 50))
	if err := j.Allocate(ctx, mkAssign(f)[:3]); err == nil {
		t.Error("short assign should fail")
	}
	ctx.Demand = ctx.Demand[:4]
	if err := j.Allocate(ctx, mkAssign(f)); err == nil {
		t.Error("short demand should fail")
	}
	ctx = mkContext(f, 1000, flatPrices(len(f.Clusters), 50))
	ctx.Room = nil
	if err := j.Allocate(ctx, mkAssign(f)); err == nil {
		t.Error("missing room should fail")
	}
}

func TestJointOptimizerOrderCache(t *testing.T) {
	f := testFleet(t)
	j, _ := NewJointOptimizer(f, 0.01)
	prices := flatPrices(len(f.Clusters), 50)
	ctx := mkContext(f, 100, prices)
	a1 := mkAssign(f)
	if err := j.Allocate(ctx, a1); err != nil {
		t.Fatal(err)
	}
	// Same prices: cached orders give the identical allocation.
	ctx2 := mkContext(f, 100, prices)
	a2 := mkAssign(f)
	if err := j.Allocate(ctx2, a2); err != nil {
		t.Fatal(err)
	}
	for s := range a1 {
		for c := range a1[s] {
			if a1[s][c] != a2[s][c] {
				t.Fatal("cached allocation differs")
			}
		}
	}
	// Changed prices invalidate the cache and change the allocation.
	prices2 := flatPrices(len(f.Clusters), 50)
	il, _ := f.Index("IL")
	prices2[il] = 1
	ctx3 := mkContext(f, 100, prices2)
	a3 := mkAssign(f)
	if err := j.Allocate(ctx3, a3); err != nil {
		t.Fatal(err)
	}
	same := true
	for s := range a1 {
		for c := range a1[s] {
			if a1[s][c] != a3[s][c] {
				same = false
			}
		}
	}
	if same {
		t.Error("price change did not affect allocation")
	}
}

// gridFleet is a fleetLike fixture with arbitrary distances.
type gridFleet struct{ dist [][]float64 }

func (g gridFleet) StateCount() int                     { return len(g.dist) }
func (g gridFleet) ClusterCount() int                   { return len(g.dist[0]) }
func (g gridFleet) Distance(state, cluster int) float64 { return g.dist[state][cluster] }

// sortSliceOrders is the reference ranking refreshOrders replaced: a
// sort.Slice per state with the same (score, distance) comparator.
func sortSliceOrders(f fleetLike, w float64, prices []float64) [][]int {
	ns, nc := f.StateCount(), f.ClusterCount()
	orders := make([][]int, ns)
	scores := make([]float64, nc)
	for s := range orders {
		order := make([]int, nc)
		for c := range order {
			order[c] = c
			scores[c] = prices[c] + w*f.Distance(s, c)
		}
		sort.Slice(order, func(a, b int) bool {
			if scores[order[a]] != scores[order[b]] {
				return scores[order[a]] < scores[order[b]]
			}
			return f.Distance(s, order[a]) < f.Distance(s, order[b])
		})
		orders[s] = order
	}
	return orders
}

// TestJointOrdersMatchSortSlice pins the insertion-sort ranking to the
// sort.Slice one it replaced, over fixtures whose coarse prices and
// distances force tied scores (and fully tied score-and-distance pairs,
// where only stability decides).
func TestJointOrdersMatchSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 500; trial++ {
		ns, nc := 1+rng.Intn(6), 1+rng.Intn(12)
		f := gridFleet{dist: make([][]float64, ns)}
		for s := range f.dist {
			f.dist[s] = make([]float64, nc)
			for c := range f.dist[s] {
				f.dist[s][c] = 100 * float64(rng.Intn(4))
			}
		}
		w := []float64{0, 0.01, 0.05}[rng.Intn(3)]
		j, err := NewJointOptimizer(f, w)
		if err != nil {
			t.Fatal(err)
		}
		prices := make([]float64, nc)
		for c := range prices {
			prices[c] = 20 + 5*float64(rng.Intn(3))
		}
		j.refreshOrders(prices)
		want := sortSliceOrders(f, w, prices)
		for s := range want {
			if !slices.Equal(j.orders[s], want[s]) {
				t.Fatalf("trial %d state %d: order %v, sort.Slice reference %v (prices %v, distances %v, w %v)",
					trial, s, j.orders[s], want[s], prices, f.dist[s], w)
			}
		}
	}
	// The real fleet, across real-looking price vectors.
	fleet := testFleet(t)
	j, _ := NewJointOptimizer(fleet, 0.02)
	prices := make([]float64, len(fleet.Clusters))
	for trial := 0; trial < 50; trial++ {
		for c := range prices {
			prices[c] = 30 + 10*float64(rng.Intn(5))
		}
		j.refreshOrders(prices)
		want := sortSliceOrders(fleet, 0.02, prices)
		for s := range want {
			if !slices.Equal(j.orders[s], want[s]) {
				t.Fatalf("fleet trial %d state %d: order %v, want %v", trial, s, j.orders[s], want[s])
			}
		}
	}
}

// BenchmarkJointRefresh measures one re-ranking of every state's score
// order (51 states onto 9 clusters) after a price change.
func BenchmarkJointRefresh(b *testing.B) {
	f := testFleet(b)
	j, err := NewJointOptimizer(f, 0.02)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	sets := make([][]float64, 64)
	for i := range sets {
		sets[i] = make([]float64, len(f.Clusters))
		for c := range sets[i] {
			sets[i][c] = 20 + 60*rng.Float64()
		}
	}
	j.refreshOrders(sets[len(sets)-1]) // allocate the order tables off the clock
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j.refreshOrders(sets[i%len(sets)])
	}
}
