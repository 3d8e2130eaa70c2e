// Package powerroute_bench regenerates every table and figure in the
// paper's evaluation as a benchmark: each Benchmark* target runs the
// corresponding experiment end to end on the canonical seeded world and
// reports headline metrics via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// both regenerates the results and measures the cost of doing so. The
// rendered rows themselves come from `go run ./cmd/powerroute all`.
package powerroute_bench

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"powerroute/internal/core"
	"powerroute/internal/energy"
	"powerroute/internal/experiments"
	"powerroute/internal/market"
	"powerroute/internal/routing"
	"powerroute/internal/sim"
	"powerroute/internal/traffic"
)

// benchEnv returns the shared full-size world.
func benchEnv(b *testing.B) *experiments.Env {
	b.Helper()
	env, err := experiments.SharedEnv()
	if err != nil {
		b.Fatal(err)
	}
	return env
}

// freshEnv returns an environment over the shared world with empty
// result caches. core.System caches baselines and whole outcomes, so
// reusing one environment across b.N would time cache hits after the
// first iteration; each iteration takes a fresh one, built off the clock.
func freshEnv(b *testing.B, env *experiments.Env) *experiments.Env {
	b.StopTimer()
	defer b.StartTimer()
	return &experiments.Env{System: env.System.Fresh()}
}

// runFigure benchmarks one registered experiment.
func runFigure(b *testing.B, id string) {
	b.Helper()
	env := benchEnv(b)
	def, ok := experiments.Get(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := def.Run(freshEnv(b, env))
		if err != nil {
			b.Fatal(err)
		}
		if res.Text == "" {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkFig01AnnualCosts(b *testing.B)      { runFigure(b, "fig1") }
func BenchmarkFig02Hubs(b *testing.B)             { runFigure(b, "fig2") }
func BenchmarkFig03DailyPrices(b *testing.B)      { runFigure(b, "fig3") }
func BenchmarkFig04MarketComparison(b *testing.B) { runFigure(b, "fig4") }
func BenchmarkFig05VolatilityWindows(b *testing.B) {
	runFigure(b, "fig5")
}
func BenchmarkFig06HubStats(b *testing.B)     { runFigure(b, "fig6") }
func BenchmarkFig07HourlyDeltas(b *testing.B) { runFigure(b, "fig7") }
func BenchmarkFig08Correlation(b *testing.B)  { runFigure(b, "fig8") }
func BenchmarkFig09Differentials(b *testing.B) {
	runFigure(b, "fig9")
}
func BenchmarkFig10DiffHistograms(b *testing.B) { runFigure(b, "fig10") }
func BenchmarkFig11MonthlyDiff(b *testing.B)    { runFigure(b, "fig11") }
func BenchmarkFig12HourOfDay(b *testing.B)      { runFigure(b, "fig12") }
func BenchmarkFig13Durations(b *testing.B)      { runFigure(b, "fig13") }
func BenchmarkFig14Traffic(b *testing.B)        { runFigure(b, "fig14") }

// BenchmarkFig15ElasticitySavings also reports the headline savings
// percentages so the bench log doubles as a results record.
func BenchmarkFig15ElasticitySavings(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig15ElasticitySavings(freshEnv(b, env))
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
	b.StopTimer()
	relaxed, err := env.System.Run(core.RunConfig{
		Horizon: core.Trace24Day, Energy: energy.OptimisticFuture, DistanceThresholdKm: 1500,
	})
	if err != nil {
		b.Fatal(err)
	}
	follow, err := env.System.Run(core.RunConfig{
		Horizon: core.Trace24Day, Energy: energy.OptimisticFuture, DistanceThresholdKm: 1500, Follow95: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(100*relaxed.Savings, "%savings-relaxed")
	b.ReportMetric(100*follow.Savings, "%savings-95/5")
}

func BenchmarkFig16CostVsDistance(b *testing.B)  { runFigure(b, "fig16") }
func BenchmarkFig17ClientDistance(b *testing.B)  { runFigure(b, "fig17") }
func BenchmarkFig18LongRun(b *testing.B)         { runFigure(b, "fig18") }
func BenchmarkFig19PerCluster(b *testing.B)      { runFigure(b, "fig19") }
func BenchmarkFig20ReactionDelay(b *testing.B)   { runFigure(b, "fig20") }
func BenchmarkAblationDeadband(b *testing.B)     { runFigure(b, "ablation-deadband") }
func BenchmarkAblationExponent(b *testing.B)     { runFigure(b, "ablation-exponent") }
func BenchmarkAblationHardCap(b *testing.B)      { runFigure(b, "ablation-hardcap") }
func BenchmarkAblationUniformFleet(b *testing.B) { runFigure(b, "ablation-uniform") }
func BenchmarkExtCarbonAware(b *testing.B)       { runFigure(b, "ext-carbon") }
func BenchmarkExtDemandResponse(b *testing.B)    { runFigure(b, "ext-demand") }

// --- Whole-registry engine benchmarks -------------------------------------

// benchRegistry regenerates every registered experiment through the
// concurrent engine at a given worker count. Comparing the two targets
// below pins the parallel engine's speedup on the machine at hand:
//
//	go test -bench='BenchmarkRegistry' -benchtime=1x
func benchRegistry(b *testing.B, parallel int) {
	env := benchEnv(b)
	defs := experiments.All()
	experiments.SetParallelism(parallel)
	defer experiments.SetParallelism(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := experiments.RunAll(freshEnv(b, env), defs, parallel)
		if err != nil {
			b.Fatal(err)
		}
		if len(results) != len(defs) {
			b.Fatalf("got %d results, want %d", len(results), len(defs))
		}
	}
}

// BenchmarkRegistrySerial runs the full figure suite on one worker (the
// pre-parallel engine's behavior).
func BenchmarkRegistrySerial(b *testing.B) { benchRegistry(b, 1) }

// BenchmarkRegistryParallel runs the full figure suite on one worker per
// CPU.
func BenchmarkRegistryParallel(b *testing.B) { benchRegistry(b, runtime.GOMAXPROCS(0)) }

// --- Component micro-benchmarks -------------------------------------------

// BenchmarkMarketGeneration measures synthesizing the full 39-month,
// 29-hub price history.
func BenchmarkMarketGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d, err := market.Generate(market.Config{Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		_ = d
	}
}

// BenchmarkTrafficGeneration measures synthesizing the 24-day, 51-state
// 5-minute workload.
func BenchmarkTrafficGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tr, err := traffic.Generate(traffic.Config{Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		_ = tr
	}
}

// BenchmarkSimulation24Day measures one full 24-day 5-minute-step
// simulation under the price optimizer.
func BenchmarkSimulation24Day(b *testing.B) {
	env := benchEnv(b)
	sys := env.System
	demand, err := sim.FromTrace(sys.Trace)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt, err := routing.NewPriceOptimizer(sys.Fleet, 1500, routing.DefaultPriceThreshold)
		if err != nil {
			b.Fatal(err)
		}
		res, err := sim.Run(sim.Scenario{
			Fleet: sys.Fleet, Policy: opt, Energy: energy.OptimisticFuture,
			Market: sys.Market, Demand: demand,
			Start: sys.Trace.Start, Steps: sys.Trace.Samples, Step: 5 * time.Minute,
			ReactionDelay: sim.DefaultReactionDelay,
		})
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
	steps := float64(sys.Trace.Samples)
	b.ReportMetric(steps*float64(b.N)/b.Elapsed().Seconds(), "steps/s")
}

// BenchmarkSimulation39Month measures one hourly-step 39-month run.
func BenchmarkSimulation39Month(b *testing.B) {
	env := benchEnv(b)
	sys := env.System
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt, err := routing.NewPriceOptimizer(sys.Fleet, 1500, routing.DefaultPriceThreshold)
		if err != nil {
			b.Fatal(err)
		}
		res, err := sim.Run(sim.Scenario{
			Fleet: sys.Fleet, Policy: opt, Energy: energy.OptimisticFuture,
			Market: sys.Market, Demand: sys.LongRun,
			Start: sys.Market.Start, Steps: sys.Market.Hours, Step: time.Hour,
			ReactionDelay: sim.DefaultReactionDelay,
		})
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
	steps := float64(sys.Market.Hours)
	b.ReportMetric(steps*float64(b.N)/b.Elapsed().Seconds(), "steps/s")
}

// BenchmarkAllocateStep measures one routing decision (51 states onto 9
// clusters) in isolation.
func BenchmarkAllocateStep(b *testing.B) {
	env := benchEnv(b)
	fleet := env.System.Fleet
	opt, err := routing.NewPriceOptimizer(fleet, 1500, routing.DefaultPriceThreshold)
	if err != nil {
		b.Fatal(err)
	}
	ns, nc := len(fleet.States), len(fleet.Clusters)
	ctx := &routing.Context{
		Demand:         make([]float64, ns),
		DecisionPrices: make([]float64, nc),
		Room:           make([]float64, nc),
		BurstRoom:      make([]float64, nc),
	}
	assign := make([][]float64, ns)
	for s := range assign {
		assign[s] = make([]float64, nc)
	}
	for s := range ctx.Demand {
		ctx.Demand[s] = 5000
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for c, cl := range fleet.Clusters {
			ctx.DecisionPrices[c] = float64(30 + (i+c)%50) // shift prices to defeat the order cache
			ctx.Room[c] = float64(cl.Capacity)
			ctx.BurstRoom[c] = 0
		}
		for s := range assign {
			row := assign[s]
			for c := range row {
				row[c] = 0
			}
		}
		if err := opt.Allocate(ctx, assign); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBenchHarness keeps `go test ./...` exercising this package: it runs
// the cheapest figure end to end.
func TestBenchHarness(t *testing.T) {
	env, err := experiments.SharedEnv()
	if err != nil {
		t.Fatal(err)
	}
	def, ok := experiments.Get("fig1")
	if !ok {
		t.Fatal("fig1 missing")
	}
	res, err := def.Run(env)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Text, "Google") {
		t.Error("fig1 output incomplete")
	}
}

// BenchmarkExtJointOptimization regenerates the §8 joint-optimization
// frontier.
func BenchmarkExtJointOptimization(b *testing.B) { runFigure(b, "ext-joint") }

// regionalScenario is the 39-month world under a 600 km optimizer — the
// tightest reach, splitting the fleet into 3 routing-closed market
// regions — with a fresh policy per call (engines must not share an
// optimizer's order cache).
func regionalScenario(b *testing.B, env *experiments.Env) sim.Scenario {
	b.Helper()
	sys := env.System
	opt, err := routing.NewPriceOptimizer(sys.Fleet, 600, routing.DefaultPriceThreshold)
	if err != nil {
		b.Fatal(err)
	}
	return sim.Scenario{
		Fleet: sys.Fleet, Policy: opt, Energy: energy.OptimisticFuture,
		Market: sys.Market, Demand: sys.LongRun,
		Start: sys.Market.Start, Steps: sys.Market.Hours, Step: time.Hour,
		ReactionDelay: sim.DefaultReactionDelay,
	}
}

// stepInputs holds every interval's inputs precomputed — instants,
// delayed decision prices, billing prices, demand — so the regional
// drive benchmarks time engine stepping alone, not series lookups.
type stepInputs struct {
	at             []time.Time
	decision, bill [][]float64
	demand         [][]float64
}

func regionalInputs(b *testing.B, env *experiments.Env) *stepInputs {
	b.Helper()
	sc := regionalScenario(b, env)
	eng, err := sim.NewEngine(sc)
	if err != nil {
		b.Fatal(err)
	}
	prices := eng.PriceSeries()
	marketStart := prices[0].Start
	in := &stepInputs{
		at:       make([]time.Time, sc.Steps),
		decision: make([][]float64, sc.Steps),
		bill:     make([][]float64, sc.Steps),
		demand:   make([][]float64, sc.Steps),
	}
	for s := 0; s < sc.Steps; s++ {
		at := sc.Start.Add(time.Duration(s) * sc.Step)
		in.at[s] = at
		in.decision[s] = make([]float64, len(prices))
		in.bill[s] = make([]float64, len(prices))
		decisionAt := at.Add(-sc.ReactionDelay)
		if decisionAt.Before(marketStart) {
			decisionAt = marketStart
		}
		for c := range prices {
			v, err := prices[c].At(decisionAt)
			if err != nil {
				b.Fatal(err)
			}
			in.decision[s][c] = v
			if v, err = prices[c].At(at); err != nil {
				b.Fatal(err)
			}
			in.bill[s][c] = v
		}
		in.demand[s] = sc.Demand.Rates(at, nil)
	}
	return in
}

// driveInputs steps an engine through every precomputed interval and
// closes the books.
func driveInputs(b *testing.B, eng *sim.Engine, in *stepInputs) {
	b.Helper()
	for s := range in.at {
		if err := eng.Step(in.at[s], sim.StepPrices{Decision: in.decision[s], Bill: in.bill[s]}, in.demand[s]); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := eng.Finalize(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkRegional39MonthJoint drives the 3-region world (600 km
// threshold) on one engine.
func BenchmarkRegional39MonthJoint(b *testing.B) {
	env := benchEnv(b)
	in := regionalInputs(b, env)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := sim.NewEngine(regionalScenario(b, env))
		if err != nil {
			b.Fatal(err)
		}
		driveInputs(b, eng, in)
	}
	b.ReportMetric(float64(len(in.at))*float64(b.N)/b.Elapsed().Seconds(), "steps/s")
}
