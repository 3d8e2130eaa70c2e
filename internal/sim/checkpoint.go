// Durable engine state: a Checkpoint captures every per-step structure an
// Engine owns — billing meters (including per-month demand peaks), 95/5
// burst budgets, battery state-of-charge, the distance histogram, step
// cursor, and running totals — so a long-horizon run survives a process
// death. The encoding is versioned and self-describing: a text magic line
// names the format, a JSON envelope carries the small state plus the
// declared length and SHA-256 of a binary payload holding the numeric bulk
// (meter samples, histogram bins, the last assignment matrix). Old or
// foreign checkpoints fail loudly instead of loading wrong, and a world
// hash ties every checkpoint to the exact world (fleet, prices, policy,
// tariffs) that produced it.
//
// The restore invariant, enforced by test and by CI's crash-recovery job:
// replay N steps → Checkpoint → kill → Restore → replay the rest produces
// the uninterrupted batch Run's Result bit for bit. Everything in the
// checkpoint round-trips exactly — floats travel as raw bits in the
// payload and as Go's shortest-round-trip decimals in the envelope.
package sim

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"powerroute/internal/billing"
	"powerroute/internal/sched"
	"powerroute/internal/stats"
	"powerroute/internal/storage"
	"powerroute/internal/timeseries"
	"powerroute/internal/units"
)

// CheckpointVersion is the format this build writes and the only one it
// restores. Bump it whenever the engine grows per-step state the old
// layout cannot carry; old files then fail with a version error rather
// than restoring a silently incomplete engine.
//
// v2 made checkpoints mergeable across shards: fleet-wide scalars
// (total cost/energy, overload, storage totals, carbon) became
// per-cluster vectors, and the envelope gained the cluster/state codes
// plus the shard identity (parent world hash and fleet positions). A v1
// file cannot express per-cluster overload or storage totals, so it
// refuses to load instead of restoring zeros silently.
//
// v3 finished the per-cluster program for the distance distribution: the
// single fleet histogram became one histogram per cluster (hist_bytes is
// now a per-cluster length vector framing per-cluster payload blobs), so
// MergeCheckpoints scatters them disjointly and the merged mean/p99 are
// bit-exact instead of float-associativity-close. v3 also added the
// optional burst_leases section for coordinated (fleet-gated) burst
// accounting. A v2 file's joint histogram cannot be split back into
// per-cluster parts, so it refuses to load.
const CheckpointVersion = 3

const (
	checkpointMagicPrefix = "powerroute-checkpoint v"
	checkpointMagic       = "powerroute-checkpoint v3"

	// maxCheckpointPayload bounds the declared payload size a decoder will
	// read: a 39-month hourly world checkpoints in single-digit megabytes,
	// so anything near this cap is corrupt or hostile.
	maxCheckpointPayload = 1 << 30
)

// Totals holds the running sums that accumulate while stepping — all of
// them per cluster. Fleet-wide figures (the Result's TotalCost,
// TotalEnergy, overload seconds, storage totals, carbon) are derived from
// these in fleet order at Snapshot/Finalize time, never accumulated across
// clusters, which is what lets a shard merge scatter each cluster's sums
// into fleet positions and reproduce the joint run's figures bit for bit.
// Finalize-only fields (billable p95s, demand charges) are recomputed from
// the restored meters when the run ends.
//
// ckpt:state Checkpoint,loadCheckpoint,MergeCheckpoints
type Totals struct {
	ClusterCost   []units.Money  `json:"cluster_cost_usd"`  // running bill per cluster (dollars)
	ClusterEnergy []units.Energy `json:"cluster_energy_wh"` // running grid energy per cluster (watt-hours)
	PeakRate      []float64      `json:"peak_rate"`         // maximum assigned rate per cluster so far
	// MeanUtilizationSum is the running per-cluster utilization sum;
	// Finalize divides by the step count.
	MeanUtilizationSum []float64 `json:"mean_utilization_sum"`
	// OverloadSec is each cluster's demand-beyond-capacity seconds.
	OverloadSec []float64 `json:"overload_sec"`

	// StorageBoughtKWh and StorageServedKWh are per-cluster storage
	// totals, present exactly when the scenario configures storage.
	StorageBoughtKWh []float64 `json:"storage_bought_kwh,omitempty"`
	StorageServedKWh []float64 `json:"storage_served_kwh,omitempty"`

	// ClusterCarbonKg is the per-cluster emissions ledger, present when
	// the scenario meters carbon (may be absent at step 0).
	ClusterCarbonKg []float64 `json:"cluster_carbon_kg,omitempty"`

	// Batch class ledgers (served / shed-at-deadline / queue residence
	// integral per cluster), present exactly when the scenario configures
	// the deferrable class.
	BatchServedKWh   []float64 `json:"batch_served_kwh,omitempty"`
	BatchShedKWh     []float64 `json:"batch_shed_kwh,omitempty"`
	BatchDeferredKWh []float64 `json:"batch_deferred_kwh_steps,omitempty"`
}

// Checkpoint is a complete, self-contained snapshot of an Engine mid-run.
// Build one with Engine.Checkpoint, persist it with Encode/WriteFile, and
// turn it back into a live engine with Restore.
//
// ckpt:state Encode,DecodeCheckpoint,MergeCheckpoints
type Checkpoint struct {
	Version   int    // format version; Restore accepts only CheckpointVersion
	WorldHash string // sha256 over the world definition; ties the state to its exact world

	// ShardOf carries the parent world's hash when this checkpoint was
	// taken by a shard engine (a scenario built by Scenario.Shard), and is
	// empty for whole-world checkpoints. MergeCheckpoints requires every
	// part to name the same parent — that is the shard-compatibility
	// guard — and stamps the merged checkpoint's WorldHash with it, so
	// the merge restores only into the exact joint world.
	ShardOf string

	// Configuration echoes: Restore refuses a checkpoint whose geometry
	// disagrees with the target scenario even before the world hash check,
	// so error messages name the exact mismatch.
	Policy        string        // routing policy name
	Start         time.Time     // scenario start
	Step          time.Duration // interval length
	ScenarioSteps int           // horizon length in intervals
	Clusters      int           // fleet cluster count
	States        int           // fleet client-state count

	// ClusterCodes and StateCodes name the engine's fleet slots in order;
	// ClusterIndex and StateIndex give each slot's position in the parent
	// fleet when sharded (nil otherwise). Codes make restore mismatches
	// nameable; indices are what MergeCheckpoints scatters by.
	ClusterCodes []string
	StateCodes   []string
	ClusterIndex []int
	StateIndex   []int

	StepsRun int       // step cursor: intervals already advanced
	LastAt   time.Time // instant of the last advanced interval

	// Totals carries the per-cluster running sums; the optional sections
	// below are present exactly when the scenario configures the matching
	// subsystem (95/5 soft caps, storage, demand-charge tariff) — Restore
	// rejects a checkpoint whose optional sections disagree with the
	// target scenario's configuration.
	Totals       Totals
	Constraints  []billing.ConstraintState
	Batteries    []storage.Snapshot
	DemandMeters []billing.DemandMeterState
	// BatchQueues holds each cluster's live deferrable-job queue, present
	// exactly when the scenario configures the batch class (jobs stay in
	// their home cluster's queue even when served elsewhere, so the
	// section scatters disjointly across a shard merge).
	BatchQueues []sched.QueueState
	// BurstLeases books each cluster's coordinated burst-token traffic
	// (granted/used/expired), present exactly when the scenario configures
	// a BurstGate. Tokens are booked at the cluster they were leased to,
	// so the section scatters disjointly across a shard merge.
	BurstLeases []billing.LeaseLedgerState

	// MeterSamples holds each cluster's full per-interval rate record (the
	// 95/5 bill needs every sample); DistHists the per-cluster hit-weighted
	// distance histograms (fleet order); Loads and Assign the last
	// interval's rates and full state×cluster assignment matrix
	// (status/assignments endpoints). These travel as raw little-endian
	// float64 bits in the binary payload, so they round-trip bit-exactly.
	MeterSamples [][]float64
	DistHists    []*stats.WeightedHistogram
	Loads        []float64
	Assign       [][]float64
}

// Checkpoint captures the engine's complete per-run state. The engine is
// not mutated and keeps stepping afterwards; a finalized engine cannot be
// checkpointed (its books are closed — restore targets a live run).
func (e *Engine) Checkpoint() (*Checkpoint, error) {
	if e.finalized {
		return nil, errors.New("sim: cannot checkpoint a finalized engine")
	}
	cp := &Checkpoint{
		Version:       CheckpointVersion,
		WorldHash:     e.WorldHash(),
		ShardOf:       e.sc.shardOf,
		Policy:        e.res.Policy,
		Start:         e.sc.Start,
		Step:          e.sc.Step,
		ScenarioSteps: e.sc.Steps,
		Clusters:      e.nc,
		States:        e.ns,
		ClusterCodes:  make([]string, e.nc),
		StateCodes:    make([]string, e.ns),
		ClusterIndex:  clone(e.sc.shardClusters),
		StateIndex:    clone(e.sc.shardStates),
		StepsRun:      e.stepsRun,
		LastAt:        e.lastAt,
		Assign:        states(e.assign, clone[float64]),
	}
	for c, cl := range e.sc.Fleet.Clusters {
		cp.ClusterCodes[c] = cl.Code
	}
	for s, st := range e.sc.Fleet.States {
		cp.StateCodes[s] = st.Code
	}
	for _, k := range components {
		if k.present(e) {
			k.Checkpoint(e, cp)
		}
	}
	return cp, nil
}

// Restore builds a fresh engine for the scenario and loads the checkpoint
// into it, resuming the run mid-horizon. The scenario must describe the
// exact world the checkpoint came from: the world hash (fleet, price
// series, policy, tariffs, storage config) and every configuration echo
// are verified before any state is applied.
func Restore(sc Scenario, cp *Checkpoint) (*Engine, error) {
	eng, err := NewEngine(sc)
	if err != nil {
		return nil, err
	}
	if err := eng.loadCheckpoint(cp); err != nil {
		return nil, fmt.Errorf("sim: restore: %w", err)
	}
	return eng, nil
}

// Scenario returns the scenario the engine was built from. Slice and
// pointer fields (fleet, market, policy) are shared with the engine; the
// intended use is rebuilding an equivalent engine, e.g. Restore after a
// PUT /v1/checkpoint.
func (e *Engine) Scenario() Scenario { return e.sc }

// loadCheckpoint validates cp against the freshly built engine and applies
// it. The engine must not have stepped yet.
func (e *Engine) loadCheckpoint(cp *Checkpoint) error {
	if cp == nil {
		return errors.New("nil checkpoint")
	}
	if cp.Version != CheckpointVersion {
		return fmt.Errorf("checkpoint version %d, this build restores only v%d", cp.Version, CheckpointVersion)
	}
	if e.stepsRun != 0 || e.finalized {
		return errors.New("restore target engine already advanced")
	}
	if cp.Policy != e.res.Policy {
		return fmt.Errorf("checkpoint from policy %q, scenario runs %q", cp.Policy, e.res.Policy)
	}
	if cp.Clusters != e.nc || cp.States != e.ns {
		return fmt.Errorf("checkpoint geometry %d clusters × %d states, scenario has %d × %d",
			cp.Clusters, cp.States, e.nc, e.ns)
	}
	if !cp.Start.Equal(e.sc.Start) || cp.Step != e.sc.Step || cp.ScenarioSteps != e.sc.Steps {
		return fmt.Errorf("checkpoint horizon (start %v, step %v, %d steps) differs from scenario (start %v, step %v, %d steps)",
			cp.Start, cp.Step, cp.ScenarioSteps, e.sc.Start, e.sc.Step, e.sc.Steps)
	}
	if got, want := cp.WorldHash, e.WorldHash(); got != want {
		return fmt.Errorf("world hash mismatch: checkpoint %s, scenario %s (different seed, market, fleet, or tariff)", got, want)
	}
	if cp.ShardOf != e.sc.shardOf {
		return fmt.Errorf("checkpoint shard parent %q, scenario's is %q", cp.ShardOf, e.sc.shardOf)
	}
	if !slices.Equal(cp.ClusterIndex, e.sc.shardClusters) || !slices.Equal(cp.StateIndex, e.sc.shardStates) {
		return errors.New("checkpoint shard positions differ from the scenario's partition")
	}
	if cp.StepsRun < 0 {
		return fmt.Errorf("negative step cursor %d", cp.StepsRun)
	}
	if len(cp.ClusterCodes) != e.nc || len(cp.StateCodes) != e.ns {
		return fmt.Errorf("checkpoint names %d clusters and %d states, scenario has %d and %d",
			len(cp.ClusterCodes), len(cp.StateCodes), e.nc, e.ns)
	}
	for c, cl := range e.sc.Fleet.Clusters {
		if cp.ClusterCodes[c] != cl.Code {
			return fmt.Errorf("checkpoint cluster %d is %q, scenario's is %q", c, cp.ClusterCodes[c], cl.Code)
		}
	}
	for s, st := range e.sc.Fleet.States {
		if cp.StateCodes[s] != st.Code {
			return fmt.Errorf("checkpoint state %d is %q, scenario's is %q", s, cp.StateCodes[s], st.Code)
		}
	}

	// Per-cluster sections are checked in table order, so a multi-section
	// mismatch always reports the same error text.
	if err := checkSizes(cp, e.nc, false); err != nil {
		return fmt.Errorf("checkpoint has %w", err)
	}
	for c, samples := range cp.MeterSamples {
		if len(samples) != cp.StepsRun {
			return fmt.Errorf("cluster %d meter has %d samples for %d steps", c, len(samples), cp.StepsRun)
		}
	}
	if len(cp.Assign) != e.ns {
		return fmt.Errorf("assignment matrix has %d state rows, want %d", len(cp.Assign), e.ns)
	}
	for s, row := range cp.Assign {
		if len(row) != e.nc {
			return fmt.Errorf("assignment row %d has %d clusters, want %d", s, len(row), e.nc)
		}
	}
	// Optional components must match the scenario's configuration exactly.
	for _, k := range components {
		if err := k.check(k.present(e), e.nc, cp); err != nil {
			return err
		}
	}

	// Distance histogram geometry must match the engine's fixed layout,
	// cluster by cluster.
	for c, h := range cp.DistHists {
		if h == nil {
			return fmt.Errorf("checkpoint missing cluster %d distance histogram", c)
		}
		gotMin, gotMax := h.Bounds()
		wantMin, wantMax := e.distHists[c].Bounds()
		if gotMin != wantMin || gotMax != wantMax || h.NumBins() != e.distHists[c].NumBins() {
			return fmt.Errorf("cluster %d distance histogram geometry [%v, %v]×%d differs from engine's [%v, %v]×%d",
				c, gotMin, gotMax, h.NumBins(), wantMin, wantMax, e.distHists[c].NumBins())
		}
	}

	// Validation done — apply.
	for _, k := range components {
		if k.present(e) {
			if err := k.loadCheckpoint(e, cp); err != nil {
				return err
			}
		}
	}
	for s := range e.assign {
		copy(e.assign[s], cp.Assign[s])
	}
	e.stepsRun = cp.StepsRun
	e.lastAt = cp.LastAt
	return nil
}

// WorldHash returns a SHA-256 digest ("sha256:…") over everything that
// defines the engine's world and billing contract: the fleet geometry, the
// full per-cluster price series (so two different market seeds can never
// be confused), the routing policy, the reaction delay, soft caps, storage
// configuration, carbon/decision series, and the demand-charge tariff.
// Computed once per engine and cached; the step hot path never touches it.
func (e *Engine) WorldHash() string {
	if e.worldHash == "" {
		e.worldHash = worldHash(&e.sc, e.prices)
	}
	return e.worldHash
}

func worldHash(sc *Scenario, prices []*timeseries.Series) string {
	h := sha256.New()
	fmt.Fprintf(h, "powerroute-world v1\npolicy=%s\nstart=%d step=%d steps=%d delay=%d demand_charge=%x\nenergy=%+v\n",
		sc.Policy.Name(), sc.Start.UnixNano(), int64(sc.Step), sc.Steps,
		int64(sc.ReactionDelay), math.Float64bits(sc.DemandChargePerKW), sc.Energy)
	for _, cl := range sc.Fleet.Clusters {
		fmt.Fprintf(h, "cluster %s hub=%s servers=%d capacity=%x\n",
			cl.Code, cl.HubID, cl.Servers, math.Float64bits(float64(cl.Capacity)))
	}
	for _, st := range sc.Fleet.States {
		fmt.Fprintf(h, "state %s\n", st.Code)
	}
	if sc.SoftCaps != nil {
		fmt.Fprint(h, "softcaps")
		for _, v := range sc.SoftCaps {
			fmt.Fprintf(h, " %x", math.Float64bits(v))
		}
		fmt.Fprintln(h)
	}
	if sc.Storage != nil {
		fmt.Fprintf(h, "storage policy=%s routing_aware=%v\n", sc.Storage.Policy.Name(), sc.Storage.RoutingAware)
		for _, b := range sc.Storage.Batteries {
			fmt.Fprintf(h, "battery %x %x %x %x %x\n",
				math.Float64bits(b.CapacityKWh), math.Float64bits(b.MaxChargeKW),
				math.Float64bits(b.MaxDischargeKW), math.Float64bits(b.RoundTripEfficiency),
				math.Float64bits(b.InitialSoC))
		}
	}
	if sc.Batch != nil {
		fmt.Fprintf(h, "batch peak_guard=%v migrate=%v\nbatch_max_kw", sc.Batch.PeakGuard, sc.Batch.Migrate)
		for _, v := range sc.Batch.MaxBatchKW {
			fmt.Fprintf(h, " %x", math.Float64bits(v))
		}
		fmt.Fprint(h, "\nbatch_thresholds")
		for _, v := range sc.Batch.Thresholds {
			fmt.Fprintf(h, " %x", math.Float64bits(v))
		}
		fmt.Fprintln(h)
		for _, j := range sc.Batch.Jobs {
			fmt.Fprintf(h, "batch_job %d %d %d %x %x\n",
				j.Cluster, j.Arrival, j.Deadline,
				math.Float64bits(j.EnergyKWh), math.Float64bits(j.MinFraction))
		}
	}
	hashSeries := func(label string, series []*timeseries.Series) {
		for i, s := range series {
			fmt.Fprintf(h, "%s %d start=%d step=%d n=%d\n", label, i, s.Start.UnixNano(), int64(s.Step), len(s.Values))
			_ = binary.Write(h, binary.LittleEndian, s.Values)
		}
	}
	hashSeries("rt", prices)
	if sc.DecisionSeries != nil {
		hashSeries("decision", sc.DecisionSeries)
	}
	if sc.Carbon != nil {
		hashSeries("carbon", sc.Carbon)
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))
}

// --- wire format -----------------------------------------------------------

// checkpointEnvelope is the JSON line after the magic: every small field
// plus the payload's section lengths and digest. Numeric bulk lives in the
// binary payload that follows.
//
// ckpt:state Encode,DecodeCheckpoint
type checkpointEnvelope struct {
	Version       int       `json:"version"`
	WorldHash     string    `json:"world_hash"`
	ShardOf       string    `json:"shard_of,omitempty"`
	Policy        string    `json:"policy"`
	Start         time.Time `json:"start"`
	StepNS        int64     `json:"step_ns"`
	ScenarioSteps int       `json:"scenario_steps"`
	Clusters      int       `json:"clusters"`
	States        int       `json:"states"`
	ClusterCodes  []string  `json:"cluster_codes"`
	StateCodes    []string  `json:"state_codes"`
	ClusterIndex  []int     `json:"cluster_index,omitempty"`
	StateIndex    []int     `json:"state_index,omitempty"`
	StepsRun      int       `json:"steps_run"`
	LastAt        time.Time `json:"last_at"`

	Totals       Totals                     `json:"totals"`
	Constraints  []billing.ConstraintState  `json:"constraints,omitempty"`
	Batteries    []storage.Snapshot         `json:"batteries,omitempty"`
	DemandMeters []billing.DemandMeterState `json:"demand_meters,omitempty"`
	BatchQueues  []sched.QueueState         `json:"batch_queues,omitempty"`
	BurstLeases  []billing.LeaseLedgerState `json:"burst_leases,omitempty"`

	// Payload layout: HistBytes[c] bytes of histogram blob per cluster in
	// fleet order, then MeterSamples[c] float64s per cluster, then
	// Clusters last-interval rates, then the States×Clusters assignment
	// matrix row-major — all little-endian.
	HistBytes     []int  `json:"hist_bytes"`
	MeterSamples  []int  `json:"meter_samples"`
	PayloadBytes  int64  `json:"payload_bytes"`
	PayloadSHA256 string `json:"payload_sha256"`
}

// Encode writes the checkpoint: the magic line, the JSON envelope line,
// then the binary payload.
func (cp *Checkpoint) Encode(w io.Writer) error {
	histBlobs := make([][]byte, len(cp.DistHists))
	histBytes := make([]int, len(cp.DistHists))
	var histTotal int
	for c, h := range cp.DistHists {
		blob, err := h.MarshalBinary()
		if err != nil {
			return fmt.Errorf("sim: encoding cluster %d distance histogram: %w", c, err)
		}
		histBlobs[c] = blob
		histBytes[c] = len(blob)
		histTotal += len(blob)
	}
	var sampleTotal int
	counts := make([]int, len(cp.MeterSamples))
	for c, samples := range cp.MeterSamples {
		counts[c] = len(samples)
		sampleTotal += len(samples)
	}
	payload := make([]byte, 0, histTotal+8*(sampleTotal+len(cp.Loads)+cp.States*cp.Clusters))
	for _, blob := range histBlobs {
		payload = append(payload, blob...)
	}
	for _, samples := range cp.MeterSamples {
		payload = appendFloats(payload, samples)
	}
	payload = appendFloats(payload, cp.Loads)
	for _, row := range cp.Assign {
		payload = appendFloats(payload, row)
	}
	digest := sha256.Sum256(payload)

	env := checkpointEnvelope{
		Version:       cp.Version,
		WorldHash:     cp.WorldHash,
		ShardOf:       cp.ShardOf,
		Policy:        cp.Policy,
		Start:         cp.Start,
		StepNS:        int64(cp.Step),
		ScenarioSteps: cp.ScenarioSteps,
		Clusters:      cp.Clusters,
		States:        cp.States,
		ClusterCodes:  cp.ClusterCodes,
		StateCodes:    cp.StateCodes,
		ClusterIndex:  cp.ClusterIndex,
		StateIndex:    cp.StateIndex,
		StepsRun:      cp.StepsRun,
		LastAt:        cp.LastAt,
		Totals:        cp.Totals,
		HistBytes:     histBytes,
		MeterSamples:  counts,
		PayloadBytes:  int64(len(payload)),
		PayloadSHA256: hex.EncodeToString(digest[:]),
	}
	for _, k := range components {
		k.Encode(cp, &env)
	}
	envJSON, err := json.Marshal(env)
	if err != nil {
		return fmt.Errorf("sim: encoding checkpoint envelope: %w", err)
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := fmt.Fprintf(bw, "%s\n%s\n", checkpointMagic, envJSON); err != nil {
		return err
	}
	if _, err := bw.Write(payload); err != nil {
		return err
	}
	return bw.Flush()
}

func appendFloats(b []byte, vals []float64) []byte {
	for _, v := range vals {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// DecodeCheckpoint parses one encoded checkpoint. Every failure mode is
// loud and specific: wrong magic, unsupported version, malformed envelope,
// declared/actual payload length mismatch (truncated file), digest
// mismatch (corruption), trailing bytes, or internally inconsistent
// section lengths.
func DecodeCheckpoint(r io.Reader) (*Checkpoint, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	magic, err := br.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("sim: reading checkpoint magic: %w", err)
	}
	magic = strings.TrimSuffix(magic, "\n")
	if magic != checkpointMagic {
		if strings.HasPrefix(magic, checkpointMagicPrefix) {
			return nil, fmt.Errorf("sim: unsupported checkpoint format %q (this build reads %q)", magic, checkpointMagic)
		}
		return nil, errors.New("sim: not a powerroute checkpoint")
	}
	envLine, err := br.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("sim: reading checkpoint envelope: %w", err)
	}
	var env checkpointEnvelope
	if err := json.Unmarshal([]byte(envLine), &env); err != nil {
		return nil, fmt.Errorf("sim: decoding checkpoint envelope: %w", err)
	}
	if env.Version != CheckpointVersion {
		return nil, fmt.Errorf("sim: checkpoint version %d, this build reads v%d", env.Version, CheckpointVersion)
	}
	if env.Clusters <= 0 || env.Clusters > 1<<20 || env.States <= 0 || env.States > 1<<20 {
		return nil, fmt.Errorf("sim: checkpoint geometry %d clusters × %d states out of range", env.Clusters, env.States)
	}
	if env.StepsRun < 0 {
		return nil, fmt.Errorf("sim: negative step cursor %d", env.StepsRun)
	}
	if len(env.ClusterCodes) != env.Clusters || len(env.StateCodes) != env.States {
		return nil, fmt.Errorf("sim: checkpoint names %d clusters and %d states for geometry %d × %d",
			len(env.ClusterCodes), len(env.StateCodes), env.Clusters, env.States)
	}
	if (len(env.ClusterIndex) > 0) != (len(env.StateIndex) > 0) || (env.ShardOf == "") != (len(env.ClusterIndex) == 0) {
		return nil, errors.New("sim: checkpoint shard identity is incomplete (needs shard_of, cluster_index, and state_index together)")
	}
	if len(env.ClusterIndex) > 0 && (len(env.ClusterIndex) != env.Clusters || len(env.StateIndex) != env.States) {
		return nil, fmt.Errorf("sim: checkpoint shard positions cover %d clusters and %d states for geometry %d × %d",
			len(env.ClusterIndex), len(env.StateIndex), env.Clusters, env.States)
	}
	if len(env.MeterSamples) != env.Clusters {
		return nil, fmt.Errorf("sim: %d meter sample counts for %d clusters", len(env.MeterSamples), env.Clusters)
	}
	if len(env.HistBytes) != env.Clusters {
		return nil, fmt.Errorf("sim: %d histogram lengths for %d clusters", len(env.HistBytes), env.Clusters)
	}
	var histTotal int64
	for c, n := range env.HistBytes {
		// Per-length bound before summing, same overflow guard as the
		// meter sample counts below.
		if n < 0 || n > maxCheckpointPayload {
			return nil, fmt.Errorf("sim: cluster %d histogram length %d out of range", c, n)
		}
		histTotal += int64(n)
	}
	if histTotal > maxCheckpointPayload {
		return nil, fmt.Errorf("sim: %d total histogram bytes exceed the payload cap", histTotal)
	}
	var sampleTotal int64
	for c, n := range env.MeterSamples {
		// Per-count bound before summing: without it a pair of huge counts
		// overflows sampleTotal and the consistency check below compares
		// wrapped garbage, letting a crafted envelope drive the section
		// parser into an absurd allocation instead of an error.
		if n < 0 || n > maxCheckpointPayload/8 {
			return nil, fmt.Errorf("sim: cluster %d declares %d meter samples", c, n)
		}
		sampleTotal += int64(n)
	}
	if sampleTotal > maxCheckpointPayload/8 {
		return nil, fmt.Errorf("sim: %d total meter samples exceed the payload cap", sampleTotal)
	}
	want := histTotal + 8*(sampleTotal+int64(env.Clusters)+int64(env.States)*int64(env.Clusters))
	if env.PayloadBytes != want {
		return nil, fmt.Errorf("sim: declared payload %d bytes, sections sum to %d", env.PayloadBytes, want)
	}
	if env.PayloadBytes > maxCheckpointPayload {
		return nil, fmt.Errorf("sim: payload %d bytes exceeds the %d-byte cap", env.PayloadBytes, maxCheckpointPayload)
	}

	// Read the payload through a limit so a truncated file surfaces as a
	// short read (memory use tracks the bytes actually present).
	var buf bytes.Buffer
	n, err := io.Copy(&buf, io.LimitReader(br, env.PayloadBytes))
	if err != nil {
		return nil, fmt.Errorf("sim: reading checkpoint payload: %w", err)
	}
	if n != env.PayloadBytes {
		return nil, fmt.Errorf("sim: checkpoint truncated: payload has %d of %d declared bytes", n, env.PayloadBytes)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, errors.New("sim: trailing bytes after checkpoint payload")
	}
	payload := buf.Bytes()
	digest := sha256.Sum256(payload)
	if got := hex.EncodeToString(digest[:]); got != strings.ToLower(env.PayloadSHA256) {
		return nil, fmt.Errorf("sim: checkpoint payload digest %s does not match declared %s (corrupt file)", got, env.PayloadSHA256)
	}

	cp := &Checkpoint{
		Version:       env.Version,
		WorldHash:     env.WorldHash,
		ShardOf:       env.ShardOf,
		Policy:        env.Policy,
		Start:         env.Start,
		Step:          time.Duration(env.StepNS),
		ScenarioSteps: env.ScenarioSteps,
		Clusters:      env.Clusters,
		States:        env.States,
		ClusterCodes:  env.ClusterCodes,
		StateCodes:    env.StateCodes,
		ClusterIndex:  orNil(env.ClusterIndex),
		StateIndex:    orNil(env.StateIndex),
		StepsRun:      env.StepsRun,
		LastAt:        env.LastAt,
		Totals:        env.Totals,
	}
	// The envelope's optional sections use omitempty, so an empty slice in
	// a hand-crafted file would not survive a re-encode; the components
	// normalize theirs to nil (absent) so decode(encode(decode(x))) is a
	// fixed point.
	for _, k := range components {
		k.DecodeCheckpoint(&env, cp)
	}
	off := 0
	take := func(n int) []byte {
		b := payload[off : off+n]
		off += n
		return b
	}
	cp.DistHists = make([]*stats.WeightedHistogram, env.Clusters)
	for c := range cp.DistHists {
		cp.DistHists[c] = new(stats.WeightedHistogram)
		if err := cp.DistHists[c].UnmarshalBinary(take(env.HistBytes[c])); err != nil {
			return nil, fmt.Errorf("sim: decoding cluster %d distance histogram: %w", c, err)
		}
	}
	cp.MeterSamples = states(env.MeterSamples, func(n int) []float64 { return readFloats(take(8*n), n) })
	cp.Loads = readFloats(take(8*env.Clusters), env.Clusters)
	cp.Assign = make([][]float64, env.States)
	for s := range cp.Assign {
		cp.Assign[s] = readFloats(take(8*env.Clusters), env.Clusters)
	}
	return cp, nil
}

func readFloats(b []byte, n int) []float64 {
	if n == 0 {
		// A zero-step meter serializes as nil; keep decode(encode(x)) == x.
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

// WriteCheckpointFile encodes cp to path atomically: the bytes land in a
// temp file in the same directory, are synced, and replace path with one
// rename — a crash mid-write can never leave a half-written checkpoint
// under the real name.
func WriteCheckpointFile(path string, cp *Checkpoint) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("sim: checkpoint temp file: %w", err)
	}
	tmp := f.Name()
	defer func() {
		if tmp != "" {
			f.Close()
			os.Remove(tmp)
		}
	}()
	if err := cp.Encode(f); err != nil {
		return fmt.Errorf("sim: writing checkpoint: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("sim: syncing checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("sim: closing checkpoint: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("sim: publishing checkpoint: %w", err)
	}
	tmp = "" // renamed away; nothing to clean up
	return nil
}

// ReadCheckpointFile decodes the checkpoint at path.
func ReadCheckpointFile(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return DecodeCheckpoint(f)
}
