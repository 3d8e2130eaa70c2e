package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"powerroute/internal/core"
	"powerroute/internal/experiments"
)

// smallWorld shrinks the horizons so a workload runs in about a second.
var smallWorld = core.Options{Seed: 7, MarketMonths: 2, TraceDays: 2}

func smokeConfig(t *testing.T, workload string) config {
	cfg := newConfig(workload, 7, 700*time.Millisecond, false)
	cfg.opts = smallWorld
	cfg.liveRate, cfg.readRate = 100, 5
	return cfg
}

func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	parent := span{Start: 10 * ms, End: 30 * ms}
	for _, tc := range []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"no children", nil, 20 * ms},
		{"one inside", []span{{Start: 12 * ms, End: 15 * ms}}, 17 * ms},
		{"overlapping count once", []span{{Start: 12 * ms, End: 20 * ms}, {Start: 15 * ms, End: 22 * ms}}, 10 * ms},
		{"disjoint", []span{{Start: 11 * ms, End: 13 * ms}, {Start: 20 * ms, End: 25 * ms}}, 13 * ms},
		{"clipped to the parent", []span{{Start: 5 * ms, End: 12 * ms}, {Start: 28 * ms, End: 40 * ms}}, 16 * ms},
		{"outside", []span{{Start: 31 * ms, End: 40 * ms}}, 20 * ms},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: self %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestSpanLayers(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "coord.status", ID: 1, Start: 0, End: 100 * ms},
		{Name: "server.checkpoint", ID: 2, Parent: 1, Start: 10 * ms, End: 20 * ms},
		{Name: "server.checkpoint", ID: 3, Parent: 1, Start: 12 * ms, End: 25 * ms},
		{Name: "server.checkpoint", ID: 4, Parent: 1, Start: 80 * ms, End: 90 * ms},
		{Name: "server.checkpoint", ID: 5, Parent: 1, Start: 80 * ms, End: 88 * ms},
		{Name: "coord.status", ID: 6, Start: 200 * ms, End: 220 * ms},
		{Name: "server.checkpoint", ID: 7, Parent: 6, Start: 205 * ms, End: 210 * ms},
		{Name: "server.checkpoint", ID: 8, Parent: 6, Start: 205 * ms, End: 211 * ms},
		{Name: "coord.demand", ID: 9, Start: 300 * ms, End: 310 * ms},
		{Name: "server.demand", ID: 10, Parent: 9, Start: 301 * ms, End: 304 * ms},
		{Name: "server.demand", ID: 11, Parent: 9, Start: 301 * ms, End: 308 * ms},
		{Name: "server.checkpoint", ID: 12, Start: 400 * ms, End: 401 * ms}, // background merge
	}
	out := make(map[string]float64)
	spanLayers(spans, out)
	near := func(name string, want float64) {
		t.Helper()
		if got := out[name]; got < want-1e-9 || got > want+1e-9 {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
	near("coord.status.calls", 2)
	near("coord.status.busy_s", 0.120)
	near("coord.status.self_s", (100-15-10)*1e-3+(20-6)*1e-3)
	near("coord.refresh.pulls_per_read", 6.0/4)
	near("server.checkpoint.calls", 7)
	near("coord.demand.self_s", 0.003)
	near("server.demand.skew_s", 0.004)
}

func TestPercentile(t *testing.T) {
	if got := percentile([]float64{3, 1, 2}, 0.5); got != 2 {
		t.Errorf("percentile %g, want 2", got)
	}
	if got := percentile([]float64{0, 10}, 0.95); got != 9.5 {
		t.Errorf("percentile %g, want 9.5 by interpolation", got)
	}
}

// checkE2E asserts every end-to-end metric is reported and positive.
func checkE2E(t *testing.T, rep *report) {
	t.Helper()
	if !rep.Correct || rep.Attempted < 1 || rep.Failed != 0 {
		t.Fatalf("report correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
	}
	if len(rep.Metrics) != len(endToEnd) {
		t.Errorf("%d metrics, want %d", len(rep.Metrics), len(endToEnd))
	}
	for _, m := range endToEnd {
		got, ok := rep.Metrics[m.name]
		if !ok || !(got.Value > 0) || got.Unit != m.unit {
			t.Errorf("metric %s = %+v (present %v), want a positive value in %s", m.name, got, ok, m.unit)
		}
	}
}

func TestServingWorkloadsSmoke(t *testing.T) {
	for _, wl := range []string{"replay", "live"} {
		t.Run(wl, func(t *testing.T) {
			rep, notes, err := execute(smokeConfig(t, wl))
			if err != nil {
				t.Fatal(err)
			}
			checkE2E(t, rep)
			if len(notes) == 0 {
				t.Error("no human-readable figures printed")
			}
		})
	}
}

func TestServingGateCatchesPerturbedReference(t *testing.T) {
	for _, wl := range []string{"replay", "live"} {
		t.Run(wl, func(t *testing.T) {
			cfg := smokeConfig(t, wl)
			cfg.perturb = func(k int, demand []float64) {
				if k == 3 {
					demand[0] += 1
				}
			}
			rep, _, err := execute(cfg)
			var gate gateError
			if !errors.As(err, &gate) {
				t.Fatalf("perturbed reference: err %v, want a gate failure", err)
			}
			if rep == nil || rep.Correct || len(rep.Metrics) != 0 {
				t.Errorf("a failed gate must report correct=false and no metrics, got %+v", rep)
			}
		})
	}
}

// registryDefs are experiments that run on the shrunk world.
func registryDefs(t *testing.T) []experiments.Definition {
	var defs []experiments.Definition
	for _, id := range []string{"fig1", "fig9", "ext-carbon"} {
		d, ok := experiments.Get(id)
		if !ok {
			t.Fatalf("experiment %s not registered", id)
		}
		defs = append(defs, d)
	}
	return defs
}

// renderedHash is the SHA-256 of the output `powerroute` prints for defs.
func renderedHash(t *testing.T, defs []experiments.Definition) string {
	env, err := experiments.NewEnvWith(smallWorld)
	if err != nil {
		t.Fatal(err)
	}
	results, err := experiments.RunAll(env, defs, 1)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, res := range results {
		fmt.Fprintf(&b, "=== %s: %s ===\n", res.ID, res.Title)
		fmt.Fprintln(&b, res.Text)
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

func TestRegistrySmokeAndGate(t *testing.T) {
	cfg := smokeConfig(t, "registry")
	cfg.defs = registryDefs(t)
	cfg.wantHash = renderedHash(t, cfg.defs)
	rep, _, err := execute(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkE2E(t, rep)

	cfg.wantHash = strings.Repeat("0", 64)
	_, _, err = execute(cfg)
	var gate gateError
	if !errors.As(err, &gate) {
		t.Fatalf("wrong recorded hash: err %v, want a gate failure", err)
	}
}

func TestRegistryWorldSeed(t *testing.T) {
	for _, seed := range []int64{-9, -1, 0, 1, 8, 1 << 40} {
		ws, hash := registryWorldSeed(seed)
		if ws < experiments.DefaultSeed || ws >= experiments.DefaultSeed+int64(len(registryHashes)) || len(hash) != 64 {
			t.Errorf("seed %d → world %d hash %q", seed, ws, hash)
		}
	}
	if ws, hash := registryWorldSeed(0); ws != experiments.DefaultSeed || hash != registryHashes[0] {
		t.Errorf("seed 0 → world %d, want the default world %d", ws, experiments.DefaultSeed)
	}
}

func TestTracedRunReportsEveryLayer(t *testing.T) {
	for _, wl := range []string{"replay", "live"} {
		t.Run(wl, func(t *testing.T) {
			cfg := smokeConfig(t, wl)
			cfg.trace = true
			cfg.traceFile = filepath.Join(t.TempDir(), "spans.jsonl")
			rep, _, err := execute(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct {
				t.Fatal("traced run not correct")
			}
			layers := perLayer()
			if len(rep.Metrics) != len(layers) {
				t.Errorf("%d metrics, want %d", len(rep.Metrics), len(layers))
			}
			for _, m := range layers {
				if got, ok := rep.Metrics[m.name]; !ok || got.Unit != m.unit {
					t.Errorf("layer %s = %+v (present %v), want unit %s", m.name, got, ok, m.unit)
				}
			}
			for _, name := range []string{
				"routing.allocate.calls", "sim.step.calls", "sim.step.self_s", "coord.demand.calls",
				"coord.demand.self_s", "server.demand.calls", "server.prices.calls",
				"bench.peak_rss_mb", "bench.trace_overhead_ratio",
			} {
				if !(rep.Metrics[name].Value > 0) {
					t.Errorf("%s = %g, want > 0", name, rep.Metrics[name].Value)
				}
			}
			for _, name := range []string{"sim.checkpoint.bytes", "sim.restore_s"} {
				if got := rep.Metrics[name].Value; (got > 0) != (wl == "live") {
					t.Errorf("%s = %g on %s; the checkpoint path is timed on live only", name, got, wl)
				}
			}
			if self, busy := rep.Metrics["coord.demand.self_s"].Value, rep.Metrics["coord.demand.busy_s"].Value; self > busy {
				t.Errorf("coord.demand self %g exceeds busy %g", self, busy)
			}
			if wl == "live" && !(rep.Metrics["coord.refresh.pulls_per_read"].Value >= 1) {
				t.Errorf("pulls per read %g, want >= 1", rep.Metrics["coord.refresh.pulls_per_read"].Value)
			}
			if fi, err := os.Stat(cfg.traceFile); err != nil || fi.Size() == 0 {
				t.Errorf("span file: %v", err)
			}
		})
	}
}

// TestBenchmarkJSONMatchesCode keeps the repository's BENCHMARK.json in
// step with the workloads and metrics this command reports.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the command runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not run", w.Name)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []named) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), command %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer())
}
