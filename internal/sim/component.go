// The per-cluster component table. Beyond its fixed header (identity,
// geometry, cursor, assignment matrix), a checkpoint is a list of
// per-cluster sections, each owning the Totals ledgers that accumulate
// alongside it. Every site that walks those sections — Engine.Checkpoint,
// both halves of loadCheckpoint, Encode, DecodeCheckpoint and
// MergeCheckpoints — loops over the components table, so a new
// per-cluster section is one table entry plus its struct fields, and a
// checkpoint with several bad sections always blames the first in table
// order.
//
// A component's role methods carry the names of the entry points that
// drive them. ckptfield collects every function of a ckpt:state name
// across receivers, so each struct field is still checked against each
// role it must appear in: a field a component captures but never
// restores, merges, encodes or decodes fails powerroute-vet.
package sim

import (
	"errors"
	"fmt"
	"strings"

	"powerroute/internal/billing"
	"powerroute/internal/sched"
	"powerroute/internal/stats"
	"powerroute/internal/storage"
)

// component is one per-cluster checkpoint section together with the
// Totals ledgers that belong to it.
type component interface {
	// present reports whether the engine's configuration carries the
	// component; Checkpoint and loadCheckpoint run only when it does.
	present(e *Engine) bool
	// sizes returns the lengths of the component's vectors in p, its
	// per-cluster section first.
	sizes(p *Checkpoint) []int
	// check validates an optional component against the engine's
	// configuration (on is present's answer) before anything is restored.
	check(on bool, nc int, p *Checkpoint) error
	// Checkpoint copies the engine's state into p.
	Checkpoint(e *Engine, p *Checkpoint)
	// loadCheckpoint applies p's validated state to the engine.
	loadCheckpoint(e *Engine, p *Checkpoint) error
	// Encode and DecodeCheckpoint move envelope-carried sections between
	// p and env; decoding also normalizes an empty section or Totals
	// ledger to nil (absent), the form omitempty round-trips.
	Encode(p *Checkpoint, env *checkpointEnvelope)
	DecodeCheckpoint(env *checkpointEnvelope, p *Checkpoint)
	// MergeCheckpoints copies cluster j of shard p into merged fleet
	// position c, allocating m's vectors on first use.
	MergeCheckpoints(m, p *Checkpoint, j, c int)
}

// components lists every per-cluster section in the order validation
// reports and restore applies them: the mandatory vectors, then the
// optional subsystems. names are the nouns of a component's vectors in
// sizes order, as length errors print them; names[0] also names the
// component in presence and partial-component errors.
var components = []struct {
	names    []string
	optional bool
	component
}{
	{[]string{"cluster costs", "cluster energies", "peak rates", "utilization sums", "overload ledgers", "last-interval rates"}, false, clusterVectors{}},
	{[]string{"meter sample lists"}, false, meterSamples{}},
	{[]string{"distance histograms"}, false, distHists{}},
	{[]string{"95/5 constraint state"}, true, constraints{}},
	{[]string{"battery snapshots", "storage total ledgers", "storage served ledgers"}, true, batteries{}},
	{[]string{"demand meters"}, true, demandMeters{}},
	{[]string{"batch queues", "batch served ledgers", "batch shed ledgers", "batch deferral ledgers"}, true, batchQueues{}},
	{[]string{"burst lease ledgers"}, true, burstLeases{}},
	{[]string{"carbon ledgers"}, true, carbonLedger{}},
}

// checkSizes checks the vector lengths of every mandatory (optional =
// false) or every optional component in p against nc, in table order: a
// mandatory component carries each vector at full length, an optional one
// all of them or none.
func checkSizes(p *Checkpoint, nc int, optional bool) error {
	for _, k := range components {
		if k.optional != optional {
			continue
		}
		sizes := k.sizes(p)
		for v, n := range sizes {
			switch {
			case !optional && n != nc:
				return fmt.Errorf("%d %s for %d clusters", n, k.names[v], nc)
			case n != 0 && n != nc:
				return fmt.Errorf("optional per-cluster section sized %d for %d clusters", n, nc)
			case (n == 0) != (sizes[0] == 0):
				return fmt.Errorf("partial %s component: vectors sized %s for %d clusters", k.names[0], joinSizes(sizes), nc)
			}
		}
	}
	return nil
}

// joinSizes formats sizes as "9/9/0", the form the error texts use.
func joinSizes(sizes []int) string {
	return strings.ReplaceAll(strings.Trim(fmt.Sprint(sizes), "[]"), " ", "/")
}

// configured is the restore check of an optional component's section
// against the scenario subsystem that owns it (on), followed by the
// Totals ledgers the component owns: full length when configured, absent
// otherwise.
func configured(on bool, subsystem string, n, nc int, noun, ledgers, stray string, sizes ...int) error {
	if on != (n > 0) {
		return fmt.Errorf("scenario %s %v, checkpoint carries %d %s", subsystem, on, n, noun)
	}
	if on && n != nc {
		return fmt.Errorf("checkpoint has %d %s for %d clusters", n, noun, nc)
	}
	for _, n := range sizes {
		if on && n != nc {
			return fmt.Errorf("checkpoint has %s %s for %d clusters", joinSizes(sizes), ledgers, nc)
		}
		if !on && n > 0 {
			return fmt.Errorf("checkpoint carries %s the scenario does not configure", stray)
		}
	}
	return nil
}

func clone[T any](s []T) []T { return append([]T(nil), s...) }

func orNil[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return s
}

// put copies src over dst, for restore hooks that cannot fail.
func put[T any](dst, src []T) error { copy(dst, src); return nil }

// states captures one state value per cluster.
func states[S, T any](src []S, state func(S) T) []T {
	out := make([]T, len(src))
	for c, s := range src {
		out[c] = state(s)
	}
	return out
}

// restoreEach applies one state value per cluster.
func restoreEach[S, T any](dst []S, src []T, restore func(S, T) error) error {
	for c, d := range dst {
		if err := restore(d, src[c]); err != nil {
			return fmt.Errorf("cluster %d: %w", c, err)
		}
	}
	return nil
}

// scatter stores v at merged position c of dst, allocating dst at the
// merged fleet size n on first use.
func scatter[T any](dst *[]T, n, c int, v T) {
	if *dst == nil {
		*dst = make([]T, n)
	}
	(*dst)[c] = v
}

// always supplies the hooks a mandatory component does without: it is
// present in every engine, checked by length alone, and travels in the
// Totals or the binary payload rather than as an envelope section.
type always struct{}

func (always) present(*Engine) bool                              { return true }
func (always) check(bool, int, *Checkpoint) error                { return nil }
func (always) Encode(*Checkpoint, *checkpointEnvelope)           {}
func (always) DecodeCheckpoint(*checkpointEnvelope, *Checkpoint) {}

// clusterVectors carries the plain per-cluster vectors every engine
// keeps: the running bill, grid energy, peak rate, utilization and
// overload sums, and the last interval's rates.
type clusterVectors struct{ always }

func (clusterVectors) sizes(p *Checkpoint) []int {
	t := &p.Totals
	return []int{len(t.ClusterCost), len(t.ClusterEnergy), len(t.PeakRate), len(t.MeanUtilizationSum), len(t.OverloadSec), len(p.Loads)}
}
func (clusterVectors) Checkpoint(e *Engine, p *Checkpoint) {
	t, r := &p.Totals, e.res
	t.ClusterCost = clone(r.ClusterCost)
	t.ClusterEnergy = clone(r.ClusterEnergy)
	t.PeakRate = clone(r.PeakRate)
	t.MeanUtilizationSum = clone(r.MeanUtilization)
	t.OverloadSec = clone(e.overloadSec)
	p.Loads = clone(e.loads)
}
func (clusterVectors) loadCheckpoint(e *Engine, p *Checkpoint) error {
	t, r := &p.Totals, e.res
	copy(r.ClusterCost, t.ClusterCost)
	copy(r.ClusterEnergy, t.ClusterEnergy)
	copy(r.PeakRate, t.PeakRate)
	copy(r.MeanUtilization, t.MeanUtilizationSum)
	copy(e.overloadSec, t.OverloadSec)
	return put(e.loads, p.Loads)
}
func (clusterVectors) MergeCheckpoints(m, p *Checkpoint, j, c int) {
	n, dst, src := m.Clusters, &m.Totals, &p.Totals
	scatter(&dst.ClusterCost, n, c, src.ClusterCost[j])
	scatter(&dst.ClusterEnergy, n, c, src.ClusterEnergy[j])
	scatter(&dst.PeakRate, n, c, src.PeakRate[j])
	scatter(&dst.MeanUtilizationSum, n, c, src.MeanUtilizationSum[j])
	scatter(&dst.OverloadSec, n, c, src.OverloadSec[j])
	scatter(&m.Loads, n, c, p.Loads[j])
}

type meterSamples struct{ always }

func (meterSamples) sizes(p *Checkpoint) []int { return []int{len(p.MeterSamples)} }
func (meterSamples) Checkpoint(e *Engine, p *Checkpoint) {
	p.MeterSamples = make([][]float64, e.nc)
	for c := range e.meters {
		p.MeterSamples[c] = e.meters[c].Samples()
	}
}
func (meterSamples) loadCheckpoint(e *Engine, p *Checkpoint) error {
	for c := range e.meters {
		// RestoreSamples copies into the horizon NewEngine reserved, so
		// the remaining steps record without reallocating.
		e.meters[c].RestoreSamples(p.MeterSamples[c])
	}
	return nil
}
func (meterSamples) MergeCheckpoints(m, p *Checkpoint, j, c int) {
	scatter(&m.MeterSamples, m.Clusters, c, clone(p.MeterSamples[j]))
}

type distHists struct{ always }

func (distHists) sizes(p *Checkpoint) []int { return []int{len(p.DistHists)} }
func (distHists) Checkpoint(e *Engine, p *Checkpoint) {
	p.DistHists = states(e.distHists, (*stats.WeightedHistogram).Clone)
}
func (distHists) loadCheckpoint(e *Engine, p *Checkpoint) error {
	return put(e.distHists, states(p.DistHists, (*stats.WeightedHistogram).Clone))
}
func (distHists) MergeCheckpoints(m, p *Checkpoint, j, c int) {
	scatter(&m.DistHists, m.Clusters, c, p.DistHists[j].Clone())
}

// constraints carries the 95/5 burst budgets (Scenario.SoftCaps).
type constraints struct{}

func (constraints) present(e *Engine) bool    { return e.constraints != nil }
func (constraints) sizes(p *Checkpoint) []int { return []int{len(p.Constraints)} }
func (constraints) check(on bool, nc int, p *Checkpoint) error {
	return configured(on, "95/5 constraints", len(p.Constraints), nc, "constraint states", "", "")
}
func (constraints) Checkpoint(e *Engine, p *Checkpoint) {
	p.Constraints = states(e.constraints, (*billing.Constraint).State)
}
func (constraints) loadCheckpoint(e *Engine, p *Checkpoint) error {
	for c, s := range p.Constraints {
		if s.IntervalsRun != p.StepsRun {
			return fmt.Errorf("cluster %d constraint ran %d intervals, checkpoint at step %d", c, s.IntervalsRun, p.StepsRun)
		}
	}
	return restoreEach(e.constraints, p.Constraints, (*billing.Constraint).RestoreState)
}
func (constraints) Encode(p *Checkpoint, env *checkpointEnvelope) { env.Constraints = p.Constraints }
func (constraints) DecodeCheckpoint(env *checkpointEnvelope, p *Checkpoint) {
	p.Constraints = orNil(env.Constraints)
}
func (constraints) MergeCheckpoints(m, p *Checkpoint, j, c int) {
	scatter(&m.Constraints, m.Clusters, c, p.Constraints[j])
}

// batteries carries each cluster's storage state (Scenario.Storage) and
// the storage bought/served totals.
type batteries struct{}

func (batteries) present(e *Engine) bool { return e.batteries != nil }
func (batteries) sizes(p *Checkpoint) []int {
	return []int{len(p.Batteries), len(p.Totals.StorageBoughtKWh), len(p.Totals.StorageServedKWh)}
}
func (batteries) check(on bool, nc int, p *Checkpoint) error {
	return configured(on, "storage", len(p.Batteries), nc, "battery snapshots", "storage total ledgers", "storage totals",
		len(p.Totals.StorageBoughtKWh), len(p.Totals.StorageServedKWh))
}
func (batteries) Checkpoint(e *Engine, p *Checkpoint) {
	p.Batteries = states(e.batteries, (*storage.State).Snapshot)
	p.Totals.StorageBoughtKWh = clone(e.storageBought)
	p.Totals.StorageServedKWh = clone(e.storageServed)
}
func (batteries) loadCheckpoint(e *Engine, p *Checkpoint) error {
	copy(e.storageBought, p.Totals.StorageBoughtKWh)
	copy(e.storageServed, p.Totals.StorageServedKWh)
	return restoreEach(e.batteries, p.Batteries, (*storage.State).RestoreSnapshot)
}
func (batteries) Encode(p *Checkpoint, env *checkpointEnvelope) { env.Batteries = p.Batteries }
func (batteries) DecodeCheckpoint(env *checkpointEnvelope, p *Checkpoint) {
	p.Batteries = orNil(env.Batteries)
	p.Totals.StorageBoughtKWh = orNil(p.Totals.StorageBoughtKWh)
	p.Totals.StorageServedKWh = orNil(p.Totals.StorageServedKWh)
}
func (batteries) MergeCheckpoints(m, p *Checkpoint, j, c int) {
	scatter(&m.Batteries, m.Clusters, c, p.Batteries[j])
	scatter(&m.Totals.StorageBoughtKWh, m.Clusters, c, p.Totals.StorageBoughtKWh[j])
	scatter(&m.Totals.StorageServedKWh, m.Clusters, c, p.Totals.StorageServedKWh[j])
}

// demandMeters carries each cluster's monthly demand peaks
// (Scenario.DemandChargePerKW).
type demandMeters struct{}

func (demandMeters) present(e *Engine) bool    { return e.demandMeters != nil }
func (demandMeters) sizes(p *Checkpoint) []int { return []int{len(p.DemandMeters)} }
func (demandMeters) check(on bool, nc int, p *Checkpoint) error {
	return configured(on, "demand-charge metering", len(p.DemandMeters), nc, "demand meters", "", "")
}
func (demandMeters) Checkpoint(e *Engine, p *Checkpoint) {
	p.DemandMeters = states(e.demandMeters, (*billing.DemandMeter).State)
}
func (demandMeters) loadCheckpoint(e *Engine, p *Checkpoint) error {
	return restoreEach(e.demandMeters, p.DemandMeters, (*billing.DemandMeter).RestoreState)
}
func (demandMeters) Encode(p *Checkpoint, env *checkpointEnvelope) { env.DemandMeters = p.DemandMeters }
func (demandMeters) DecodeCheckpoint(env *checkpointEnvelope, p *Checkpoint) {
	p.DemandMeters = orNil(env.DemandMeters)
}
func (demandMeters) MergeCheckpoints(m, p *Checkpoint, j, c int) {
	s := p.DemandMeters[j]
	scatter(&m.DemandMeters, m.Clusters, c, billing.DemandMeterState{Months: clone(s.Months), Peaks: clone(s.Peaks)})
}

// batchQueues carries each cluster's deferrable-job queue (Scenario.Batch)
// and the three batch ledgers. Jobs stay in their home cluster's queue
// even when served elsewhere, so the section scatters disjointly.
type batchQueues struct{}

func (batchQueues) present(e *Engine) bool { return e.sched != nil }
func (batchQueues) sizes(p *Checkpoint) []int {
	return []int{len(p.BatchQueues), len(p.Totals.BatchServedKWh), len(p.Totals.BatchShedKWh), len(p.Totals.BatchDeferredKWh)}
}
func (batchQueues) check(on bool, nc int, p *Checkpoint) error {
	return configured(on, "batch class", len(p.BatchQueues), nc, "batch queues", "batch ledgers", "batch ledgers",
		len(p.Totals.BatchServedKWh), len(p.Totals.BatchShedKWh), len(p.Totals.BatchDeferredKWh))
}
func (batchQueues) Checkpoint(e *Engine, p *Checkpoint) {
	p.BatchQueues = e.sched.State()
	p.Totals.BatchServedKWh = clone(e.batchServed)
	p.Totals.BatchShedKWh = clone(e.batchShed)
	p.Totals.BatchDeferredKWh = clone(e.batchDeferred)
}
func (batchQueues) loadCheckpoint(e *Engine, p *Checkpoint) error {
	copy(e.batchServed, p.Totals.BatchServedKWh)
	copy(e.batchShed, p.Totals.BatchShedKWh)
	copy(e.batchDeferred, p.Totals.BatchDeferredKWh)
	return e.sched.RestoreState(p.BatchQueues, p.StepsRun)
}
func (batchQueues) Encode(p *Checkpoint, env *checkpointEnvelope) { env.BatchQueues = p.BatchQueues }
func (batchQueues) DecodeCheckpoint(env *checkpointEnvelope, p *Checkpoint) {
	p.BatchQueues = orNil(env.BatchQueues)
	for i := range p.BatchQueues {
		p.BatchQueues[i].Jobs = orNil(p.BatchQueues[i].Jobs)
	}
	p.Totals.BatchServedKWh = orNil(p.Totals.BatchServedKWh)
	p.Totals.BatchShedKWh = orNil(p.Totals.BatchShedKWh)
	p.Totals.BatchDeferredKWh = orNil(p.Totals.BatchDeferredKWh)
}
func (batchQueues) MergeCheckpoints(m, p *Checkpoint, j, c int) {
	scatter(&m.BatchQueues, m.Clusters, c, sched.QueueState{Jobs: clone(p.BatchQueues[j].Jobs)})
	scatter(&m.Totals.BatchServedKWh, m.Clusters, c, p.Totals.BatchServedKWh[j])
	scatter(&m.Totals.BatchShedKWh, m.Clusters, c, p.Totals.BatchShedKWh[j])
	scatter(&m.Totals.BatchDeferredKWh, m.Clusters, c, p.Totals.BatchDeferredKWh[j])
}

// burstLeases books each cluster's coordinated burst-token traffic
// (Scenario.BurstGate). Tokens are booked at the cluster they were leased
// to, so the section scatters disjointly.
type burstLeases struct{}

func (burstLeases) present(e *Engine) bool    { return e.leases != nil }
func (burstLeases) sizes(p *Checkpoint) []int { return []int{len(p.BurstLeases)} }
func (burstLeases) check(on bool, nc int, p *Checkpoint) error {
	return configured(on, "burst gate", len(p.BurstLeases), nc, "burst lease ledgers", "", "")
}
func (burstLeases) Checkpoint(e *Engine, p *Checkpoint) {
	p.BurstLeases = states(e.leases, (*billing.LeaseLedger).State)
}
func (burstLeases) loadCheckpoint(e *Engine, p *Checkpoint) error {
	return restoreEach(e.leases, p.BurstLeases, (*billing.LeaseLedger).RestoreState)
}
func (burstLeases) Encode(p *Checkpoint, env *checkpointEnvelope) { env.BurstLeases = p.BurstLeases }
func (burstLeases) DecodeCheckpoint(env *checkpointEnvelope, p *Checkpoint) {
	p.BurstLeases = orNil(env.BurstLeases)
}
func (burstLeases) MergeCheckpoints(m, p *Checkpoint, j, c int) {
	scatter(&m.BurstLeases, m.Clusters, c, p.BurstLeases[j])
}

// carbonLedger is the per-cluster emissions total (Scenario.Carbon). It
// lives in Totals rather than in an envelope section, so it keeps
// always's no-op Encode and overrides every other hook.
type carbonLedger struct{ always }

func (carbonLedger) present(e *Engine) bool    { return e.res.ClusterCarbonKg != nil }
func (carbonLedger) sizes(p *Checkpoint) []int { return []int{len(p.Totals.ClusterCarbonKg)} }
func (carbonLedger) check(on bool, nc int, p *Checkpoint) error {
	// Absent at step 0 is legitimate: the ledger is all zeros.
	switch n := len(p.Totals.ClusterCarbonKg); {
	case on && n == 0 && p.StepsRun > 0:
		return errors.New("scenario meters carbon but checkpoint has no carbon ledger")
	case !on && n > 0 && p.StepsRun > 0:
		return errors.New("checkpoint carries a carbon ledger the scenario does not meter")
	case n > 0 && n != nc:
		return fmt.Errorf("checkpoint has %d carbon ledgers for %d clusters", n, nc)
	}
	return nil
}
func (carbonLedger) Checkpoint(e *Engine, p *Checkpoint) {
	p.Totals.ClusterCarbonKg = clone(e.res.ClusterCarbonKg)
}
func (carbonLedger) loadCheckpoint(e *Engine, p *Checkpoint) error {
	return put(e.res.ClusterCarbonKg, p.Totals.ClusterCarbonKg)
}
func (carbonLedger) DecodeCheckpoint(_ *checkpointEnvelope, p *Checkpoint) {
	p.Totals.ClusterCarbonKg = orNil(p.Totals.ClusterCarbonKg)
}
func (carbonLedger) MergeCheckpoints(m, p *Checkpoint, j, c int) {
	scatter(&m.Totals.ClusterCarbonKg, m.Clusters, c, p.Totals.ClusterCarbonKg[j])
}
