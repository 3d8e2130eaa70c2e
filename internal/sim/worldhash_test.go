package sim

import (
	"testing"

	"powerroute/internal/carbon"
	"powerroute/internal/storage"
)

// TestWorldHashPinned pins the world digest of two fixture worlds to
// values recorded before the hash input was streamed through a reused
// buffer: a plain optimizer world, and one with every optional hashed
// section on (soft caps, storage, demand charge, batch jobs, decision and
// carbon series). A change to how the hash is fed must leave every digest
// bit-identical — checkpoints written by older builds carry it. Never
// regenerate these values for a speed-up.
func TestWorldHashPinned(t *testing.T) {
	fx := fixtures()
	rich := engineScenarios(t)["batch"]
	caps, _, err := DeriveCaps(rich)
	if err != nil {
		t.Fatal(err)
	}
	rich.SoftCaps = caps
	dispatch, err := storage.NewThreshold(25, 55)
	if err != nil {
		t.Fatal(err)
	}
	rich.Storage = &storage.Config{
		Batteries:    uniformBatteries(len(fx.Fleet.Clusters)),
		Policy:       dispatch,
		RoutingAware: true,
	}
	intensity, err := carbon.FleetSeries(1, fx.Fleet, fx.Market.Start, fx.Market.Hours)
	if err != nil {
		t.Fatal(err)
	}
	rich.Carbon = intensity
	rich.DecisionSeries = intensity

	for _, tc := range []struct {
		name string
		sc   Scenario
		want string
	}{
		{"plain", engineScenarios(t)["optimizer"], "sha256:a019d5668d2548e69e1b545a0a9991b7ff7f0c182debad390b56dfd44354c718"},
		{"storage+carbon+batch", rich, "sha256:aac7fc74865bb9bab316960642ddfe5e9bd15e941cf2a8c35937a216bb1bd838"},
	} {
		got, err := tc.sc.WorldHash()
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("%s: Scenario.WorldHash = %s, want %s", tc.name, got, tc.want)
		}
		eng, err := NewEngine(tc.sc)
		if err != nil {
			t.Fatal(err)
		}
		if got := eng.WorldHash(); got != tc.want {
			t.Errorf("%s: Engine.WorldHash = %s, want %s", tc.name, got, tc.want)
		}
	}
}
