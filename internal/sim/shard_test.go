package sim

import (
	"bytes"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"powerroute/internal/carbon"
	"powerroute/internal/cluster"
	"powerroute/internal/energy"
	"powerroute/internal/market"
	"powerroute/internal/routing"
	"powerroute/internal/storage"
	"powerroute/internal/timeseries"
	"powerroute/internal/units"
)

// longRunScenario is the full synthetic price horizon at hourly steps —
// the world powerrouted serves — under a price optimizer with the given
// distance threshold.
func longRunScenario(t testing.TB, thresholdKm float64) Scenario {
	t.Helper()
	fx := fixtures()
	opt, err := routing.NewPriceOptimizer(fx.Fleet, thresholdKm, routing.DefaultPriceThreshold)
	if err != nil {
		t.Fatal(err)
	}
	return Scenario{
		Fleet:         fx.Fleet,
		Policy:        opt,
		Energy:        energy.OptimisticFuture,
		Market:        fx.Market,
		Demand:        fx.LR,
		Start:         fx.Market.Start,
		Steps:         fx.Market.Hours,
		Step:          time.Hour,
		ReactionDelay: DefaultReactionDelay,
	}
}

// shardEngines splits sc by its policy's routing components and drives
// every shard engine k steps.
func shardEngines(t testing.TB, sc Scenario, k int) ([]*Engine, []Scenario) {
	t.Helper()
	p, err := PartitionByRouting(sc.Policy.(routing.Sharder), sc.Fleet)
	if err != nil {
		t.Fatal(err)
	}
	subs, err := sc.Shard(p)
	if err != nil {
		t.Fatal(err)
	}
	engines := make([]*Engine, len(subs))
	for i, sub := range subs {
		eng, err := NewEngine(sub)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		driveSteps(t, eng, sub, k)
		engines[i] = eng
	}
	return engines, subs
}

// mergeThroughWire checkpoints every shard engine, pushes each checkpoint
// through the full encode/decode cycle, and merges.
func mergeThroughWire(t testing.TB, engines []*Engine) *Checkpoint {
	t.Helper()
	parts := make([]*Checkpoint, len(engines))
	for i, eng := range engines {
		cp, err := eng.Checkpoint()
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		var buf bytes.Buffer
		if err := cp.Encode(&buf); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		decoded, err := DecodeCheckpoint(&buf)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		parts[i] = decoded
	}
	merged, err := MergeCheckpoints(parts)
	if err != nil {
		t.Fatal(err)
	}
	return merged
}

// requireResultsMatch compares two Results bit for bit, distance
// distribution included: histograms are per-cluster and scatter across
// a shard merge, so the fleet mean and p99 fold from identical bins in
// identical order on both sides.
func requireResultsMatch(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: merged result differs from the joint run's:\ngot  %+v\nwant %+v", label, got, want)
	}
}

// TestShardMergeMatchesJointRun is the headline invariant: the full
// synthetic horizon split across 2 shards (threshold 1000 km: the
// California markets vs everything east) and 3 shards (600 km: CA, Texas,
// East), replayed independently, merges to the single-engine batch run's
// final bill bit for bit. The merge is exercised both at the end of the
// horizon and mid-run (merge, restore into the joint world, finish
// jointly).
func TestShardMergeMatchesJointRun(t *testing.T) {
	for _, tc := range []struct {
		name        string
		thresholdKm float64
		shards      int
	}{
		{"2-shard-1000km", 1000, 2},
		{"3-shard-600km", 600, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc := longRunScenario(t, tc.thresholdKm)
			if testing.Short() {
				sc.Steps = 90 * 24
			}
			want, err := Run(clonePolicy(t, sc))
			if err != nil {
				t.Fatal(err)
			}

			// Full-horizon shard replay, merged and finalized jointly.
			engines, subs := shardEngines(t, clonePolicy(t, sc), sc.Steps)
			if len(subs) != tc.shards {
				t.Fatalf("partition has %d shards, want %d", len(subs), tc.shards)
			}
			merged := mergeThroughWire(t, engines)
			joint, err := Restore(clonePolicy(t, sc), merged)
			if err != nil {
				t.Fatal(err)
			}
			got, err := joint.Finalize()
			if err != nil {
				t.Fatal(err)
			}
			requireResultsMatch(t, "full-horizon merge", got, want)

			// Mid-run merge: shards pause at half the horizon, the merged
			// checkpoint restores into the joint world, and the joint
			// engine finishes the rest.
			half := sc.Steps / 2
			midEngines, _ := shardEngines(t, clonePolicy(t, sc), half)
			midMerged := mergeThroughWire(t, midEngines)

			// At the pause the merged checkpoint is bit-identical to a
			// joint engine's at the same cursor, per-cluster distance
			// histograms included (they scatter across the merge, no
			// re-summation), and the restored engine reads back the
			// joint engine's snapshot and assignment matrix exactly.
			jointSc := clonePolicy(t, sc)
			midJoint, err := NewEngine(jointSc)
			if err != nil {
				t.Fatal(err)
			}
			driveSteps(t, midJoint, jointSc, half)
			jcp, err := midJoint.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(jcp, midMerged) {
				t.Fatalf("mid-run checkpoint differs:\njoint  %+v\nmerged %+v", jcp, midMerged)
			}
			resumed, err := Restore(clonePolicy(t, sc), midMerged)
			if err != nil {
				t.Fatal(err)
			}
			if js, rs := midJoint.Snapshot(), resumed.Snapshot(); !reflect.DeepEqual(js, rs) {
				t.Fatalf("mid-run snapshot differs:\njoint    %+v\nrestored %+v", js, rs)
			}
			if ja, ra := midJoint.Assignments(nil), resumed.Assignments(nil); !reflect.DeepEqual(ja, ra) {
				t.Fatal("mid-run assignment matrices differ")
			}
			driveSteps(t, resumed, sc, sc.Steps-half)
			got2, err := resumed.Finalize()
			if err != nil {
				t.Fatal(err)
			}
			requireResultsMatch(t, "mid-run merge", got2, want)
		})
	}
}

// TestShardMergePerStructure exercises every optional per-cluster
// structure through a split-and-merge: 95/5 constraints with caps
// generous enough that the burst gate never fires (the active-gate case
// has its own test, TestShardMergeActiveBursts), batteries with a
// routing-aware percentile dispatch plus a demand-charge tariff, a
// carbon ledger, and the deferrable batch class with migration.
func TestShardMergePerStructure(t *testing.T) {
	fx := fixtures()
	newScenario := func(t *testing.T) Scenario {
		sc := longRunScenario(t, 600)
		sc.Steps = 45 * 24
		return sc
	}

	t.Run("softcaps", func(t *testing.T) {
		sc := newScenario(t)
		caps := make([]float64, len(fx.Fleet.Clusters))
		for c, cl := range fx.Fleet.Clusters {
			caps[c] = 2 * float64(cl.Capacity)
		}
		sc.SoftCaps = caps
		runSplitMerge(t, sc)
	})

	t.Run("storage-demand-charge", func(t *testing.T) {
		sc := newScenario(t)
		rts := make([]*timeseries.Series, len(fx.Fleet.Clusters))
		for c, cl := range fx.Fleet.Clusters {
			rt, err := sc.Market.RT(cl.HubID)
			if err != nil {
				t.Fatal(err)
			}
			rts[c] = rt
		}
		dispatch, err := storage.NewPercentile(rts, 0.25, 0.85)
		if err != nil {
			t.Fatal(err)
		}
		sc.Storage = &storage.Config{
			Batteries:    uniformBatteries(len(fx.Fleet.Clusters)),
			Policy:       dispatch,
			RoutingAware: true,
		}
		sc.DemandChargePerKW = 4
		runSplitMerge(t, sc)
	})

	t.Run("carbon", func(t *testing.T) {
		sc := newScenario(t)
		intensity, err := carbon.FleetSeries(3, fx.Fleet, fx.Market.Start, fx.Market.Hours)
		if err != nil {
			t.Fatal(err)
		}
		sc.Carbon = intensity
		runSplitMerge(t, sc)
	})

	t.Run("batch", func(t *testing.T) {
		sc := newScenario(t)
		sc.Batch = batchTestConfig(t, sc)
		runSplitMerge(t, sc)
	})
}

// runSplitMerge runs sc jointly and as merged shards and requires the
// results to match.
func runSplitMerge(t *testing.T, sc Scenario) {
	t.Helper()
	want, err := Run(clonePolicy(t, sc))
	if err != nil {
		t.Fatal(err)
	}
	engines, _ := shardEngines(t, clonePolicy(t, sc), sc.Steps)
	merged := mergeThroughWire(t, engines)
	joint, err := Restore(clonePolicy(t, sc), merged)
	if err != nil {
		t.Fatal(err)
	}
	got, err := joint.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	requireResultsMatch(t, "split-merge", got, want)
}

// comonotoneDemand is a demand source whose regional sums all follow
// one shared curve: per-state demand is a fixed spatial base times a
// time factor g(at). That comonotonicity is what makes tight soft caps
// compatible with exact sharding — every region crosses its q-th
// demand quantile at the same instants the fleet total crosses its own,
// so a region can only saturate (and invite the optimizer's
// cross-region outward walk) on steps where the fleet-wide burst gate
// is open and burst headroom absorbs the excess in-region instead.
type comonotoneDemand struct {
	start time.Time
	base  []float64
}

// Rates implements DemandSource, a pure function of at.
func (d *comonotoneDemand) Rates(at time.Time, dst []float64) []float64 {
	if len(dst) != len(d.base) {
		dst = make([]float64, len(d.base))
	}
	h := at.Sub(d.start).Hours()
	g := 1 + 0.5*math.Sin(2*math.Pi*h/24) + 0.3*math.Sin(2*math.Pi*h/(24*7))
	for s, b := range d.base {
		dst[s] = b * g
	}
	return dst
}

// newComonotoneDemand freezes the fixture demand's spatial distribution
// at the scenario start as the base vector.
func newComonotoneDemand(sc Scenario) *comonotoneDemand {
	return &comonotoneDemand{
		start: sc.Start,
		base:  append([]float64(nil), sc.Demand.Rates(sc.Start, nil)...),
	}
}

// cliqueScenario builds a world whose routing regions are complete
// cliques: each region is a pair of clusters co-located at one market
// hub's spot (distinct hubs, so in-region price optimization still has
// choices to make), the spots far enough apart that no state reaches two
// of them. Every state's candidate set is then a full region — within
// the threshold directly, or through the <50km fallback that pulls in
// the co-located sibling — so the price optimizer's outward walk can
// only leave a region when the region as a whole is saturated. Combined
// with comonotone demand, that makes regional saturation coincide with
// the fleet-wide burst gate opening: the precondition for sharding a
// bursting world exactly. Capacities are sized per region at 1.3× the
// regional demand peak, split evenly, so open-gate overflow always
// absorbs in-region.
func cliqueScenario(t testing.TB, thresholdKm float64, spotHubs [][2]string) Scenario {
	t.Helper()
	fx := fixtures()
	start := fx.Market.Start

	build := func(caps []float64) *cluster.Fleet {
		clusters := make([]cluster.Cluster, 0, 2*len(spotHubs))
		for i, pair := range spotHubs {
			anchor, err := market.HubByID(pair[0])
			if err != nil {
				t.Fatal(err)
			}
			for j, id := range pair {
				servers := int(caps[2*i+j]/cluster.HitsPerServer) + 1
				clusters = append(clusters, cluster.Cluster{
					Code:     id,
					HubID:    id,
					Location: anchor.Location,
					Zone:     anchor.Zone,
					Servers:  servers,
					Capacity: units.HitRate(float64(servers) * cluster.HitsPerServer),
				})
			}
		}
		f, err := cluster.NewFleet(clusters)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}

	// Pass 1: a dummy-capacity fleet discovers the state partition, which
	// sizes the real capacities off each region's demand peak.
	dummy := make([]float64, 2*len(spotHubs))
	for i := range dummy {
		dummy[i] = 1e9
	}
	probe := build(dummy)
	opt, err := routing.NewPriceOptimizer(probe, thresholdKm, routing.DefaultPriceThreshold)
	if err != nil {
		t.Fatal(err)
	}
	p, err := PartitionByRouting(opt, probe)
	if err != nil {
		t.Fatal(err)
	}
	if p.Shards() != len(spotHubs) {
		t.Fatalf("clique fleet partitioned into %d regions, want %d", p.Shards(), len(spotHubs))
	}
	demand := &comonotoneDemand{start: start, base: fx.LR.Rates(start, nil)}
	steps := 60 * 24
	caps := make([]float64, 2*len(spotHubs))
	var row []float64
	peaks := make([]float64, p.Shards())
	for i := 0; i < steps; i++ {
		row = demand.Rates(start.Add(time.Duration(i)*time.Hour), row)
		for r, states := range p.States {
			var sum float64
			for _, s := range states {
				sum += row[s]
			}
			if sum > peaks[r] {
				peaks[r] = sum
			}
		}
	}
	for r, peak := range peaks {
		caps[2*r] = 1.3 * peak / 2
		caps[2*r+1] = 1.3 * peak / 2
	}

	fleet := build(caps)
	policy, err := routing.NewPriceOptimizer(fleet, thresholdKm, routing.DefaultPriceThreshold)
	if err != nil {
		t.Fatal(err)
	}
	return Scenario{
		Fleet:         fleet,
		Policy:        policy,
		Energy:        energy.OptimisticFuture,
		Market:        fx.Market,
		Demand:        demand,
		Start:         start,
		Steps:         steps,
		Step:          time.Hour,
		ReactionDelay: DefaultReactionDelay,
	}
}

// tightSoftCaps derives per-cluster soft caps under which the burst
// gate genuinely fires without ever bankrupting a budget. The knob is
// regional: cross-region placement happens exactly when a routing
// region's demand exceeds its soft-capped room (the optimizer's
// outward walk ignores shard boundaries), so each region's room is
// pinned at the 97th percentile of its own demand — saturating ~3% of
// steps, under the 95/5 budget (5%) — and split among its clusters by
// capacity share. Under comonotone demand the regions saturate exactly
// when the fleet-wide gate opens.
func tightSoftCaps(t testing.TB, sc Scenario) []float64 {
	t.Helper()
	p, err := PartitionByRouting(sc.Policy.(routing.Sharder), sc.Fleet)
	if err != nil {
		t.Fatal(err)
	}
	regTotals := make([][]float64, p.Shards())
	for r := range regTotals {
		regTotals[r] = make([]float64, sc.Steps)
	}
	var row []float64
	for i := 0; i < sc.Steps; i++ {
		at := sc.Start.Add(time.Duration(i) * sc.Step)
		row = sc.Demand.Rates(at, row)
		for r, states := range p.States {
			var sum float64
			for _, s := range states {
				sum += row[s]
			}
			regTotals[r][i] = sum
		}
	}
	caps := make([]float64, len(sc.Fleet.Clusters))
	for r, clusters := range p.Clusters {
		sort.Float64s(regTotals[r])
		room := regTotals[r][len(regTotals[r])*97/100] / 0.999
		var capacity float64
		for _, c := range clusters {
			capacity += float64(sc.Fleet.Clusters[c].Capacity)
		}
		if !(room > 0 && room < capacity) {
			t.Fatalf("region %d: room %v vs capacity %v cannot arm the burst gate", r, room, capacity)
		}
		for _, c := range clusters {
			caps[c] = room * float64(sc.Fleet.Clusters[c].Capacity) / capacity
		}
	}
	return caps
}

// jointGateBits replays the scenario's demand and derives the joint
// burst-gate bit per step with the exported helpers — exactly what the
// coordinator's burst-token broker does from the full demand row.
func jointGateBits(t testing.TB, sc Scenario) []bool {
	t.Helper()
	room, err := BurstRoomTotal(sc.Fleet, sc.SoftCaps)
	if err != nil {
		t.Fatal(err)
	}
	bits := make([]bool, sc.Steps)
	var row []float64
	for i := range bits {
		at := sc.Start.Add(time.Duration(i) * sc.Step)
		row = sc.Demand.Rates(at, row)
		bits[i] = BurstGateOpen(SumDemand(row), room)
	}
	return bits
}

// leaseFedShardEngines shards sc, hands every sub-engine a LeaseStore
// pre-posted with the joint gate bits, and drives each k steps — the
// in-test double of a coordinator-brokered shard fleet.
func leaseFedShardEngines(t testing.TB, sc Scenario, gates []bool, k int) []*Engine {
	t.Helper()
	p, err := PartitionByRouting(sc.Policy.(routing.Sharder), sc.Fleet)
	if err != nil {
		t.Fatal(err)
	}
	subs, err := sc.Shard(p)
	if err != nil {
		t.Fatal(err)
	}
	engines := make([]*Engine, len(subs))
	for i, sub := range subs {
		store := &LeaseStore{}
		if err := store.Post(0, gates); err != nil {
			t.Fatal(err)
		}
		sub.BurstGate = store
		eng, err := NewEngine(sub)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		driveSteps(t, eng, sub, k)
		engines[i] = eng
	}
	return engines
}

// TestShardMergeActiveBursts is the invariant PR "fleet-exact sharding"
// exists for: a soft-capped world whose burst gate actually fires,
// split across 2 and 3 shards whose engines replay coordinator-brokered
// gate bits from LeaseStores, merges to the joint SelfGate run bit for
// bit — burst budgets, lease ledgers, and distance distribution
// included. The merge is exercised at the full horizon and mid-run
// (merge, restore into the joint world, finish jointly).
func TestShardMergeActiveBursts(t *testing.T) {
	for _, tc := range []struct {
		name        string
		thresholdKm float64
		spotHubs    [][2]string
	}{
		{"2-shard-1000km", 1000, [][2]string{{"NP15", "SP15"}, {"NYC", "DOM"}}},
		{"3-shard-600km", 600, [][2]string{{"NP15", "SP15"}, {"ERN", "ERS"}, {"NYC", "DOM"}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc := cliqueScenario(t, tc.thresholdKm, tc.spotHubs)
			sc.SoftCaps = tightSoftCaps(t, sc)
			sc.BurstGate = SelfGate{}

			want, err := Run(clonePolicy(t, sc))
			if err != nil {
				t.Fatal(err)
			}
			gates := jointGateBits(t, sc)

			engines := leaseFedShardEngines(t, clonePolicy(t, sc), gates, sc.Steps)
			merged := mergeThroughWire(t, engines)

			// The scenario must actually exercise the gate, or the test
			// proves nothing: tokens granted, some spent, some returned.
			var granted, used, expired, burst int
			for _, l := range merged.BurstLeases {
				granted += l.TokensGranted
				used += l.TokensUsed
				expired += l.TokensExpired
			}
			for _, cs := range merged.Constraints {
				burst += cs.BurstsUsed
			}
			if granted == 0 || used == 0 || expired == 0 || burst == 0 {
				t.Fatalf("burst gate barely fired (granted %d, used %d, expired %d, bursts %d) — caps not tight enough",
					granted, used, expired, burst)
			}

			joint, err := Restore(clonePolicy(t, sc), merged)
			if err != nil {
				t.Fatal(err)
			}
			got, err := joint.Finalize()
			if err != nil {
				t.Fatal(err)
			}
			requireResultsMatch(t, "active-burst merge", got, want)

			// Mid-run: pause the shards at half the horizon, restore the
			// merged books (lease ledgers included) into the joint world,
			// and let the joint engine finish under its own SelfGate.
			half := sc.Steps / 2
			midEngines := leaseFedShardEngines(t, clonePolicy(t, sc), gates, half)
			midMerged := mergeThroughWire(t, midEngines)
			resumed, err := Restore(clonePolicy(t, sc), midMerged)
			if err != nil {
				t.Fatal(err)
			}
			driveSteps(t, resumed, sc, sc.Steps-half)
			got2, err := resumed.Finalize()
			if err != nil {
				t.Fatal(err)
			}
			requireResultsMatch(t, "mid-run active-burst merge", got2, want)
		})
	}
}

// TestMergeRejectsBurstLeasePresenceMismatch: a merge where one shard
// books burst leases and another does not describes two different
// configurations of the same world — rejected loudly, never blended.
func TestMergeRejectsBurstLeasePresenceMismatch(t *testing.T) {
	sc := longRunScenario(t, 1000)
	sc.Steps = 24
	sc.SoftCaps = tightSoftCaps(t, sc)
	p, err := PartitionByRouting(sc.Policy.(routing.Sharder), sc.Fleet)
	if err != nil {
		t.Fatal(err)
	}
	subs, err := sc.Shard(p)
	if err != nil {
		t.Fatal(err)
	}
	parts := make([]*Checkpoint, len(subs))
	for i, sub := range subs {
		if i == 0 {
			store := &LeaseStore{}
			if err := store.Post(0, make([]bool, sc.Steps)); err != nil {
				t.Fatal(err)
			}
			sub.BurstGate = store
		}
		eng, err := NewEngine(sub)
		if err != nil {
			t.Fatal(err)
		}
		parts[i], err = eng.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := MergeCheckpoints(parts); err == nil || !strings.Contains(err.Error(), "burst lease ledgers") {
		t.Fatalf("presence mismatch not rejected: %v", err)
	}
}

// TestPartitionByRouting pins the component structure of the synthetic
// fleet: the paper's 1500 km reach spans one component (unshardable),
// 1000 km separates the California markets, 600 km also splits Texas off.
func TestPartitionByRouting(t *testing.T) {
	fx := fixtures()
	for _, tc := range []struct {
		thresholdKm float64
		shards      int
	}{
		{1500, 1},
		{1000, 2},
		{600, 3},
	} {
		opt, err := routing.NewPriceOptimizer(fx.Fleet, tc.thresholdKm, routing.DefaultPriceThreshold)
		if err != nil {
			t.Fatal(err)
		}
		p, err := PartitionByRouting(opt, fx.Fleet)
		if err != nil {
			t.Fatal(err)
		}
		if p.Shards() != tc.shards {
			t.Errorf("threshold %.0f km: %d shards, want %d", tc.thresholdKm, p.Shards(), tc.shards)
		}
		nc, ns := 0, 0
		for i := range p.Clusters {
			nc += len(p.Clusters[i])
			ns += len(p.States[i])
		}
		if nc != len(fx.Fleet.Clusters) || ns != len(fx.Fleet.States) {
			t.Errorf("threshold %.0f km: partition covers %d clusters and %d states", tc.thresholdKm, nc, ns)
		}
	}
}

// TestShardRejectsBadPartitions: non-closed, overlapping, or incomplete
// partitions and unshardable policies must all fail loudly.
func TestShardRejectsBadPartitions(t *testing.T) {
	sc := longRunScenario(t, 1000)
	opt := sc.Policy.(routing.Sharder)
	good, err := PartitionByRouting(opt, sc.Fleet)
	if err != nil {
		t.Fatal(err)
	}

	swap := func() ShardPartition {
		p := ShardPartition{
			Clusters: [][]int{append([]int(nil), good.Clusters[0]...), append([]int(nil), good.Clusters[1]...)},
			States:   [][]int{append([]int(nil), good.States[0]...), append([]int(nil), good.States[1]...)},
		}
		return p
	}

	notClosed := swap()
	notClosed.States[0], notClosed.States[1] = notClosed.States[1], notClosed.States[0]
	if _, err := sc.Shard(notClosed); err == nil || !strings.Contains(err.Error(), "routing-closed") {
		t.Errorf("non-closed partition: %v", err)
	}

	overlap := swap()
	overlap.Clusters[0] = append(overlap.Clusters[0], overlap.Clusters[1][0])
	if _, err := sc.Shard(SortPartition(overlap)); err == nil {
		t.Error("overlapping partition accepted")
	}

	missing := swap()
	missing.States[1] = missing.States[1][:len(missing.States[1])-1]
	if _, err := sc.Shard(missing); err == nil {
		t.Error("incomplete partition accepted")
	}

	static, err := routing.NewAllToOne(sc.Fleet, 0)
	if err != nil {
		t.Fatal(err)
	}
	unshardable := sc
	unshardable.Policy = static
	if _, err := unshardable.Shard(good); err == nil || !strings.Contains(err.Error(), "not shardable") {
		t.Errorf("unshardable policy: %v", err)
	}

	if subs, err := sc.Shard(good); err != nil {
		t.Fatal(err)
	} else if _, err := subs[0].Shard(good); err == nil {
		t.Error("re-sharding a shard accepted")
	}
}

// TestMergeCheckpointsRejectsIncompatibleParts: merging requires shard
// checkpoints of one parent world paused at one cursor.
func TestMergeCheckpointsRejectsIncompatibleParts(t *testing.T) {
	sc := longRunScenario(t, 1000)
	sc.Steps = 30 * 24
	engines, _ := shardEngines(t, clonePolicy(t, sc), sc.Steps)

	parts := make([]*Checkpoint, len(engines))
	for i, eng := range engines {
		cp, err := eng.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		parts[i] = cp
	}

	if _, err := MergeCheckpoints(nil); err == nil {
		t.Error("empty merge accepted")
	}

	// A whole-world checkpoint is not a shard.
	joint, err := NewEngine(clonePolicy(t, sc))
	if err != nil {
		t.Fatal(err)
	}
	driveSteps(t, joint, sc, 10)
	wholeCp, err := joint.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MergeCheckpoints([]*Checkpoint{wholeCp}); err == nil {
		t.Error("whole-world checkpoint accepted as a shard")
	}

	// Shards of different worlds (different threshold → different parent
	// hash).
	other := longRunScenario(t, 600)
	other.Steps = sc.Steps
	otherEngines, _ := shardEngines(t, other, sc.Steps)
	otherCp, err := otherEngines[0].Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MergeCheckpoints([]*Checkpoint{parts[0], otherCp}); err == nil {
		t.Error("shards of different parent worlds merged")
	}

	// Cursor mismatch.
	behindEngines, _ := shardEngines(t, clonePolicy(t, sc), sc.Steps-1)
	behindCp, err := behindEngines[1].Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MergeCheckpoints([]*Checkpoint{parts[0], behindCp}); err == nil {
		t.Error("shards at different cursors merged")
	}

	// Duplicated shard.
	if _, err := MergeCheckpoints([]*Checkpoint{parts[0], parts[0]}); err == nil {
		t.Error("duplicate shard merged")
	}

	// Incomplete cover: a lone shard's positions cannot tile the parent
	// fleet, so the merge itself refuses.
	if _, err := MergeCheckpoints(parts[:1]); err == nil {
		t.Error("partial merge accepted")
	}
}

// allSectionsScenario is the 45-day, 3-shard long run with every optional
// per-cluster section switched on: generous 95/5 caps, batteries under a
// routing-aware percentile dispatch, a demand-charge tariff, a carbon
// ledger, and the migrating batch class.
func allSectionsScenario(t testing.TB) Scenario {
	t.Helper()
	fx := fixtures()
	sc := longRunScenario(t, 600)
	sc.Steps = 45 * 24
	caps := make([]float64, len(fx.Fleet.Clusters))
	rts := make([]*timeseries.Series, len(fx.Fleet.Clusters))
	for c, cl := range fx.Fleet.Clusters {
		caps[c] = 2 * float64(cl.Capacity)
		rt, err := sc.Market.RT(cl.HubID)
		if err != nil {
			t.Fatal(err)
		}
		rts[c] = rt
	}
	sc.SoftCaps = caps
	dispatch, err := storage.NewPercentile(rts, 0.25, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	sc.Storage = &storage.Config{Batteries: uniformBatteries(len(caps)), Policy: dispatch, RoutingAware: true}
	sc.DemandChargePerKW = 4
	intensity, err := carbon.FleetSeries(3, fx.Fleet, fx.Market.Start, fx.Market.Hours)
	if err != nil {
		t.Fatal(err)
	}
	sc.Carbon = intensity
	sc.Batch = batchTestConfig(t, sc)
	return sc
}

// partialComponents strip a component's Totals ledgers while leaving its
// per-cluster section in place, keyed by the component's name.
var partialComponents = map[string]func(*Checkpoint){
	"battery snapshots": func(cp *Checkpoint) {
		cp.Totals.StorageBoughtKWh, cp.Totals.StorageServedKWh = nil, nil
	},
	"batch queues": func(cp *Checkpoint) {
		cp.Totals.BatchServedKWh, cp.Totals.BatchShedKWh, cp.Totals.BatchDeferredKWh = nil, nil, nil
	},
}

// TestMergeRejectsPartialComponent: shard responses carrying a
// component's section without the ledgers that belong to it (batteries
// without storage totals, batch queues without batch ledgers) decode, and
// then must be refused by the merge with an error naming the component —
// the coordinator merges decoded shard responses directly, so a malformed
// response must not panic it.
func TestMergeRejectsPartialComponent(t *testing.T) {
	engines, _ := shardEngines(t, allSectionsScenario(t), 24)
	for name, strip := range partialComponents {
		t.Run(name, func(t *testing.T) {
			parts := make([]*Checkpoint, len(engines))
			for i, eng := range engines {
				cp, err := eng.Checkpoint()
				if err != nil {
					t.Fatal(err)
				}
				strip(cp)
				var buf bytes.Buffer
				if err := cp.Encode(&buf); err != nil {
					t.Fatal(err)
				}
				if parts[i], err = DecodeCheckpoint(&buf); err != nil {
					t.Fatal(err)
				}
			}
			_, err := MergeCheckpoints(parts)
			if err == nil || !strings.Contains(err.Error(), name) {
				t.Fatalf("partial %s merged: %v", name, err)
			}
		})
	}
}
