package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"powerroute/internal/core"
	"powerroute/internal/routing"
	"powerroute/internal/server"
	"powerroute/internal/sim"
)

// reference is a joint sim.Engine stepped off the clock through the
// rows the generator posted. Its books are what the sharded fleet's
// merged status must equal bit for bit, and the traced run times its
// Step, Allocate and Finalize.
type reference struct {
	eng    *sim.Engine
	feed   *feed
	hubCol []int // cluster → feed hub column

	allocate, step busyCounter
	finalize       time.Duration

	// perturb, when set, edits each demand row before it is stepped;
	// tests use it to show the gate catches a wrong reference.
	perturb func(k int, demand []float64)
}

func newReference(opts core.Options, f *feed, timed bool) (*reference, error) {
	sys, err := core.NewSystem(opts)
	if err != nil {
		return nil, err
	}
	sc, err := jointScenario(sys)
	if err != nil {
		return nil, err
	}
	r := &reference{feed: f}
	if timed {
		sc.Policy = &timedPolicy{inner: sc.Policy.(routing.Sharder), rec: &r.allocate}
	}
	if r.eng, err = sim.NewEngine(sc); err != nil {
		return nil, err
	}
	col := make(map[string]int, len(f.hubIDs))
	for j, id := range f.hubIDs {
		col[id] = j
	}
	for _, cl := range sc.Fleet.Clusters {
		j, ok := col[cl.HubID]
		if !ok {
			return nil, fmt.Errorf("cluster %s prices at hub %s, which the feed lacks", cl.Code, cl.HubID)
		}
		r.hubCol = append(r.hubCol, j)
	}
	return r, nil
}

// run steps the engine through global steps [StepsRun, steps), timing
// each Step when timed.
func (r *reference) run(steps int, timed bool) error {
	nc := len(r.hubCol)
	bill, decision := make([]float64, nc), make([]float64, nc)
	demand := make([]float64, len(r.feed.demand[0]))
	for k := r.eng.StepsRun(); k < steps; k++ {
		row, drow := r.feed.priceRow(k), r.feed.priceRow(r.feed.decisionStep(k))
		for c, j := range r.hubCol {
			bill[c], decision[c] = row[j], drow[j]
		}
		copy(demand, r.feed.demandRow(k))
		if r.perturb != nil {
			r.perturb(k, demand)
		}
		prices := sim.StepPrices{Decision: decision, Bill: bill}
		var t0 time.Time
		if timed {
			t0 = time.Now()
		}
		if err := r.eng.Step(r.feed.at(k), prices, demand); err != nil {
			return fmt.Errorf("reference step %d: %w", k, err)
		}
		if timed {
			r.step.add(time.Since(t0))
		}
	}
	return nil
}

// status renders the engine's books exactly as GET /v1/status does.
func (r *reference) status() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(server.StatusPayload(r.eng.Fleet(), r.eng.Snapshot(), 0))
	return buf.Bytes(), err
}

// timeFinalize closes the engine's books, timing Finalize.
func (r *reference) timeFinalize() error {
	t0 := time.Now()
	_, err := r.eng.Finalize()
	r.finalize = time.Since(t0)
	return err
}

// books is the slice of a status payload a gate failure reports.
type books struct {
	Steps       int     `json:"steps"`
	TotalCost   float64 `json:"total_cost_usd"`
	TotalEnergy float64 `json:"total_energy_mwh"`
}

// checkBooks is the serving gate: the coordinator's merged status must
// equal the reference's byte for byte, which covers steps, total cost
// and energy along with every per-cluster figure.
func checkBooks(got []byte, r *reference, steps int, timed bool) error {
	if err := r.run(steps, timed); err != nil {
		return err
	}
	want, err := r.status()
	if err != nil {
		return err
	}
	if bytes.Equal(got, want) {
		return nil
	}
	var g, w books
	if err := json.Unmarshal(got, &g); err != nil {
		return fmt.Errorf("coordinator status: %w", err)
	}
	_ = json.Unmarshal(want, &w) // rendered above; cannot fail
	return fmt.Errorf("merged books differ from the joint reference: coordinator %+v, reference %+v", g, w)
}
