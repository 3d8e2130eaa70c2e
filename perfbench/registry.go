package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"powerroute/internal/core"
	"powerroute/internal/experiments"
)

// registryHashes records the SHA-256 of `powerroute -seed S all` for
// world seeds S = experiments.DefaultSeed + i. The registry workload
// maps its seed onto one of them (registryWorldSeed), so every seed has
// a recorded answer.
var registryHashes = [...]string{
	"ac928db8d65931e24c71da856b4e2cf92f4784124163f8f3255511cb660436e3",
	"ba71ec540a3b3c9247d38dd14f6f893d75520c251a1ddfdf8ee95b926f7c335f",
	"025ebbeb8a462426a4a9f51f780d07004e9c369029b3c29825bd99d2b9c052d0",
	"094e01ffd05f56249d97d8147b56a4671e536dfde18a93bcffa3c2b4a5c89070",
	"6efb7182b78641fcdf88be5a515da27c891c5106705ccecca55ca4f35cdf429a",
	"5f6465b90b011895b109cfbb1050b6d84a4e38dd29e0efd49350143cf038d5e1",
	"b55a31bdc72f23a5c018486ce4d6f7acf7b22101a6b945061b49aee23b588a70",
	"851fa271c4619fa1f0df04267db376d2fe6c3f918e5be4dbc909318a224a209f",
}

// registryWorldSeed maps a benchmark seed onto a recorded world seed.
func registryWorldSeed(seed int64) (worldSeed int64, wantHash string) {
	n := int64(len(registryHashes))
	i := (seed%n + n) % n
	return experiments.DefaultSeed + i, registryHashes[i]
}

// runRegistry runs every registered experiment on a fresh world, the way
// `powerroute all` does, until the run's time is up (at least once). The
// rendered output of each pass is hashed and checked against the
// recorded hash. A traced run also times Step, Allocate and Finalize on
// an off-clock joint engine over one pass of the long-run horizon: the
// simulation the experiments spend their time in.
func runRegistry(cfg config, tr *tracer) (*outcome, error) {
	experiments.SetParallelism(cfg.workers)
	out := newOutcome()
	var setups, passes []float64
	newEnv := func() (*experiments.Env, error) {
		t0 := time.Now()
		env, err := experiments.NewEnvWith(cfg.opts)
		setups = append(setups, time.Since(t0).Seconds())
		return env, err
	}
	var env *experiments.Env
	for i := 0; i < setupReps; i++ {
		var err error
		if env, err = newEnv(); err != nil {
			return nil, err
		}
	}
	busy := make(map[string]float64)
	var hashErr error
	steal := startSteal()
	start := time.Now()
	for len(passes) == 0 || time.Since(start) < cfg.seconds {
		if env == nil {
			var err error
			if env, err = newEnv(); err != nil {
				return nil, err
			}
		}
		h := sha256.New()
		t0 := time.Now()
		err := experiments.RunStream(env, cfg.defs, cfg.workers, func(res *experiments.Result, took time.Duration) error {
			out.attempted++
			fmt.Fprintf(h, "=== %s: %s ===\n", res.ID, res.Title)
			fmt.Fprintln(h, res.Text)
			busy[res.ID] += took.Seconds()
			return nil
		})
		passes = append(passes, time.Since(t0).Seconds())
		if err != nil {
			out.attempted++
			out.failed++
			return nil, err
		}
		env = nil
		if got := hex.EncodeToString(h.Sum(nil)); got != cfg.wantHash && hashErr == nil {
			hashErr = gateError{fmt.Errorf("registry output sha256 %s, recorded %s for world seed %d", got, cfg.wantHash, cfg.opts.Seed)}
		}
	}
	out.layers["bench.steal_ratio"] = steal.ratio()
	out.layers["bench.peak_rss_mb"] = peakRSSMB()
	if hashErr != nil {
		return out, hashErr
	}
	registryS, slowest := median(passes), passes[0]
	for _, p := range passes {
		slowest = max(slowest, p)
	}
	out.e2e = map[string]float64{
		"setup_s":    median(setups),
		"rate_per_s": float64(len(cfg.defs)) / registryS,
		"p50_ms":     registryS * 1000,
		"tail_ms":    slowest * 1000,
	}
	out.notef("registry_s %.4f s (median of %d passes on %d workers, %.1f%% of CPU stolen by the host)",
		registryS, len(passes), cfg.workers, 100*out.layers["bench.steal_ratio"])
	if tr == nil {
		return out, nil
	}

	var sum float64
	for id, b := range busy {
		out.layers["experiments."+id+".busy_s"] = b / float64(len(passes))
		sum += b
	}
	var wall float64
	for _, p := range passes {
		wall += p
	}
	out.layers["experiments.busy_ratio"] = sum / (wall * float64(cfg.workers))
	return out, timeOneHorizon(cfg.opts, out)
}

// timeOneHorizon steps a timed joint engine through one pass of the
// long-run horizon and closes its books, recording the engine layers.
func timeOneHorizon(opts core.Options, out *outcome) error {
	f, err := newFeed(opts)
	if err != nil {
		return err
	}
	ref, err := newReference(opts, f, true)
	if err != nil {
		return err
	}
	if err := ref.run(f.horizon, true); err != nil {
		return err
	}
	if err := ref.timeFinalize(); err != nil {
		return err
	}
	out.referenceLayers(ref)
	return nil
}
