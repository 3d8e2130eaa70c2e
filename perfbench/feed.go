package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"powerroute/internal/core"
	"powerroute/internal/server"
	"powerroute/internal/sim"
	"powerroute/internal/traffic"
)

// feed is the generator's copy of the inputs: every hub's hourly
// real-time price over the market horizon and the long-run hour-of-week
// demand, regenerated from the seed the way tracegen replays them.
// Global step k covers start + k·step, takes its prices from horizon row
// k mod horizon (later passes cycle the prices while time runs on) and
// its demand from its hour of the week.
type feed struct {
	start   time.Time
	step    time.Duration
	delay   time.Duration
	horizon int
	hubIDs  []string
	prices  [][]float64 // [row][hub]
	demand  [][]float64 // [hour of week][state]

	priceBytes  [][]byte // prices rows as batch bytes
	demandBytes [][]byte // demand rows as batch bytes
}

func newFeed(opts core.Options) (*feed, error) {
	sys, err := core.NewSystem(opts)
	if err != nil {
		return nil, err
	}
	mkt := sys.Market
	f := &feed{
		start:       mkt.Start,
		step:        time.Hour,
		delay:       sim.DefaultReactionDelay,
		horizon:     mkt.Hours,
		prices:      make([][]float64, mkt.Hours),
		demand:      make([][]float64, 168),
		priceBytes:  make([][]byte, mkt.Hours),
		demandBytes: make([][]byte, 168),
	}
	hubs := mkt.Hubs()
	for _, h := range hubs {
		f.hubIDs = append(f.hubIDs, h.ID)
	}
	for k := range f.prices {
		f.prices[k] = make([]float64, len(hubs))
	}
	for j, h := range hubs {
		rt, err := mkt.RT(h.ID)
		if err != nil {
			return nil, err
		}
		if rt.Len() < f.horizon {
			return nil, fmt.Errorf("hub %s has %d prices for a %d-hour horizon", h.ID, rt.Len(), f.horizon)
		}
		for k := range f.prices {
			f.prices[k][j] = rt.Values[k]
		}
	}
	for k, row := range f.prices {
		f.priceBytes[k] = server.AppendRow(nil, row)
	}
	for k := 0; k < 168; k++ {
		at := f.at(k)
		how := traffic.HourOfWeek(at)
		f.demand[how] = sys.LongRun.Rates(at, nil)
		f.demandBytes[how] = server.AppendRow(nil, f.demand[how])
	}
	return f, nil
}

func (f *feed) at(k int) time.Time { return f.start.Add(time.Duration(k) * f.step) }

func (f *feed) priceRow(k int) []float64 { return f.prices[k%f.horizon] }

func (f *feed) demandRow(k int) []float64 { return f.demand[traffic.HourOfWeek(f.at(k))] }

// decisionStep is the step whose prices the router sees at step k: the
// newest price at or before at(k) − delay, clamped to the first.
func (f *feed) decisionStep(k int) int {
	return max(0, int((time.Duration(k)*f.step-f.delay)/f.step))
}

// appendBatches writes the binary price and demand batches for steps
// [off, off+n) into pb and db, resetting both.
func (f *feed) appendBatches(pb, db *bytes.Buffer, off, n int) error {
	pb.Reset()
	db.Reset()
	if err := server.WriteBatchHeader(pb, "prices", f.at(off), f.step, n, len(f.hubIDs), f.hubIDs); err != nil {
		return err
	}
	if err := server.WriteBatchHeader(db, "demand", f.at(off), f.step, n, len(f.demand[0]), nil); err != nil {
		return err
	}
	for k := off; k < off+n; k++ {
		pb.Write(f.priceBytes[k%f.horizon])
		db.Write(f.demandBytes[traffic.HourOfWeek(f.at(k))])
	}
	return nil
}

// jsonBodies returns step k's single-interval JSON price and demand
// posts, the shape an operator's live feed sends.
func (f *feed) jsonBodies(k int) (prices, demand []byte, err error) {
	row := f.priceRow(k)
	pm := make(map[string]float64, len(row))
	for j, id := range f.hubIDs {
		pm[id] = row[j]
	}
	at := f.at(k)
	if prices, err = json.Marshal(struct {
		At     time.Time          `json:"at"`
		Prices map[string]float64 `json:"prices"`
	}{at, pm}); err != nil {
		return nil, nil, err
	}
	demand, err = json.Marshal(struct {
		At    time.Time `json:"at"`
		Rates []float64 `json:"rates"`
	}{at, f.demandRow(k)})
	return prices, demand, err
}
