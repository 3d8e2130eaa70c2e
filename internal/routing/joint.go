package routing

import (
	"errors"
	"fmt"
	"sort"
)

// JointOptimizer implements the §8 "Implementing Joint Optimization"
// direction: instead of a hard distance threshold with price tie-breaking,
// it minimizes a weighted objective per unit of traffic,
//
//	score(state, cluster) = price($/MWh) + DistanceWeight · distance(km)
//
// folding the performance goal into the optimization itself the way
// existing traffic-engineering frameworks fold bandwidth and reliability.
// DistanceWeight is the operator's exchange rate between a kilometer of
// client distance and a dollar per MWh of energy price: 0 recovers pure
// price chasing, large values recover proximity routing.
type JointOptimizer struct {
	fleet          fleetLike
	distanceWeight float64
	nearest        [][]int
	dist           [][]float64 // dist[s][c], read once from the fleet

	lastPrices []float64
	orders     [][]int
	scores     []float64
}

// fleetLike is the slice of cluster.Fleet the optimizer needs; it keeps
// the joint optimizer testable with small fixtures.
type fleetLike interface {
	StateCount() int
	ClusterCount() int
	Distance(state, cluster int) float64
}

// NewJointOptimizer builds the weighted-objective policy.
func NewJointOptimizer(f fleetLike, distanceWeight float64) (*JointOptimizer, error) {
	if distanceWeight < 0 {
		return nil, errors.New("routing: negative distance weight")
	}
	j := &JointOptimizer{
		fleet:          f,
		distanceWeight: distanceWeight,
		nearest:        make([][]int, f.StateCount()),
		dist:           make([][]float64, f.StateCount()),
	}
	for s := 0; s < f.StateCount(); s++ {
		j.dist[s] = make([]float64, f.ClusterCount())
		for c := range j.dist[s] {
			j.dist[s][c] = f.Distance(s, c)
		}
		order := make([]int, f.ClusterCount())
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool {
			return f.Distance(s, order[a]) < f.Distance(s, order[b])
		})
		j.nearest[s] = order
	}
	return j, nil
}

// Name implements Policy.
func (j *JointOptimizer) Name() string {
	return fmt.Sprintf("joint-optimizer(w=%.3g$/km)", j.distanceWeight)
}

// DistanceWeight returns the configured exchange rate.
func (j *JointOptimizer) DistanceWeight() float64 { return j.distanceWeight }

// Allocate implements Policy: states fill clusters in ascending score
// order, falling back through the score ranking as clusters fill.
func (j *JointOptimizer) Allocate(ctx *Context, assign [][]float64) error {
	ns, nc := j.fleet.StateCount(), j.fleet.ClusterCount()
	if len(ctx.Demand) != ns {
		return fmt.Errorf("routing: %d demands for %d states", len(ctx.Demand), ns)
	}
	if len(ctx.DecisionPrices) != nc || len(ctx.Room) != nc || len(ctx.BurstRoom) != nc {
		return errors.New("routing: context dimensions wrong")
	}
	if len(assign) != ns {
		return fmt.Errorf("routing: assign has %d rows, want %d", len(assign), ns)
	}
	j.refreshOrders(ctx.DecisionPrices)
	for s, demand := range ctx.Demand {
		if demand <= 0 {
			continue
		}
		left := fill(j.orders[s], demand, ctx, assign[s])
		if left > 0 {
			assign[s][j.nearest[s][0]] += left
		}
	}
	return nil
}

// refreshOrders recomputes the score-sorted cluster orders when prices
// change (prices change hourly; 5-minute runs reuse the cache).
func (j *JointOptimizer) refreshOrders(prices []float64) {
	if j.orders != nil && equalPrices(j.lastPrices, prices) {
		return
	}
	ns, nc := j.fleet.StateCount(), j.fleet.ClusterCount()
	if j.orders == nil {
		j.orders = make([][]int, ns)
		for s := range j.orders {
			j.orders[s] = make([]int, nc)
		}
		j.lastPrices = make([]float64, nc)
		j.scores = make([]float64, nc)
	}
	scores := j.scores
	for s := 0; s < ns; s++ {
		order, dist := j.orders[s], j.dist[s]
		for c := 0; c < nc; c++ {
			order[c] = c
			scores[c] = prices[c] + j.distanceWeight*dist[c]
		}
		// Stable insertion sort by (score, distance): full ties keep
		// cluster index order, the permutation sort.Slice gives for up to
		// 12 elements, which every fleet here has.
		for i := 1; i < nc; i++ {
			c := order[i]
			k := i - 1
			for k >= 0 && (scores[c] < scores[order[k]] ||
				(scores[c] == scores[order[k]] && dist[c] < dist[order[k]])) {
				order[k+1] = order[k]
				k--
			}
			order[k+1] = c
		}
	}
	copy(j.lastPrices, prices)
}
