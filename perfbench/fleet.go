package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"powerroute/internal/coord"
	"powerroute/internal/core"
	"powerroute/internal/energy"
	"powerroute/internal/routing"
	"powerroute/internal/server"
	"powerroute/internal/sim"
)

// The serving fleet is wired as
//
//	powerrouted -threshold-km 1000 -shard-count 2 -shard-index {0,1}
//	powerroute-coord -threshold-km 1000 -shards <both>
//
// with every other flag at its default: the hourly long-run horizon,
// the default price dead-band and reaction delay, and the coordinator's
// 10 s background merge.
const (
	fleetThresholdKm = 1000
	fleetShards      = 2
	coordMergeEvery  = 10 * time.Second
)

// jointScenario is the whole-world scenario both daemons derive from
// their flags: the hourly long-run horizon under the price optimizer.
func jointScenario(sys *core.System) (sim.Scenario, error) {
	opt, err := routing.NewPriceOptimizer(sys.Fleet, fleetThresholdKm, routing.DefaultPriceThreshold)
	if err != nil {
		return sim.Scenario{}, err
	}
	return sim.Scenario{
		Fleet:         sys.Fleet,
		Policy:        opt,
		Energy:        energy.OptimisticFuture,
		Market:        sys.Market,
		Demand:        sys.LongRun,
		Start:         sys.Market.Start,
		Steps:         sys.Market.Hours,
		Step:          time.Hour,
		ReactionDelay: sim.DefaultReactionDelay,
	}, nil
}

// shardScenario is shard i of the joint world, as powerrouted
// -shard-count 2 -shard-index i serves it. With rec set, the shard's
// policy is wrapped to time every Allocate.
func shardScenario(opts core.Options, i int, rec *busyCounter) (sim.Scenario, error) {
	sys, err := core.NewSystem(opts)
	if err != nil {
		return sim.Scenario{}, err
	}
	sc, err := jointScenario(sys)
	if err != nil {
		return sim.Scenario{}, err
	}
	partition, err := sim.PartitionByRouting(sc.Policy.(routing.Sharder), sc.Fleet)
	if err != nil {
		return sim.Scenario{}, err
	}
	if got := partition.Shards(); got != fleetShards {
		return sim.Scenario{}, fmt.Errorf("world splits into %d regions at %d km, want %d", got, fleetThresholdKm, fleetShards)
	}
	subs, err := sc.Shard(partition)
	if err != nil {
		return sim.Scenario{}, err
	}
	sub := subs[i]
	if rec != nil {
		sharder, ok := sub.Policy.(routing.Sharder)
		if !ok {
			return sim.Scenario{}, fmt.Errorf("shard policy %s cannot be wrapped: not a routing.Sharder", sub.Policy.Name())
		}
		sub.Policy = &timedPolicy{inner: sharder, rec: rec}
	}
	return sub, nil
}

// listener is one HTTP server on an ephemeral loopback port.
type listener struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(l.done)
		if err := l.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "perfbench: serve:", err)
		}
	}()
	return l, nil
}

// close stops the server and waits for its serve loop to return.
func (l *listener) close() {
	_ = l.srv.Close()
	<-l.done
}

// fleet is two shard daemons and their coordinator, hosted in-process
// on real loopback sockets.
type fleet struct {
	engines []*sim.Engine // the shard engines, for off-clock checkpoint timing after traffic stops
	shards  []*listener
	coord   *listener
	joint   sim.Scenario // the coordinator's joint world

	cancel   context.CancelFunc
	runDone  chan struct{}
	allocate []*busyCounter // per shard; nil when untraced
}

// startFleet brings the fleet up: each daemon builds its own world, the
// shards their engines and listeners, then the coordinator discovers the
// shards and starts its background merge. With tr set every handler is
// traced and the coordinator's shard calls carry span headers.
func startFleet(opts core.Options, tr *tracer) (*fleet, error) {
	f := &fleet{runDone: make(chan struct{})}
	for i := 0; i < fleetShards; i++ {
		var rec *busyCounter
		if tr != nil {
			rec = new(busyCounter)
			f.allocate = append(f.allocate, rec)
		}
		sc, err := shardScenario(opts, i, rec)
		if err != nil {
			f.close()
			return nil, err
		}
		eng, err := sim.NewEngine(sc)
		if err != nil {
			f.close()
			return nil, err
		}
		srv, err := server.New(server.Config{Engine: eng})
		if err != nil {
			f.close()
			return nil, err
		}
		l, err := listen(tr.handler("server", srv.Handler()))
		if err != nil {
			f.close()
			return nil, err
		}
		f.engines = append(f.engines, eng)
		f.shards = append(f.shards, l)
	}

	sys, err := core.NewSystem(opts)
	if err != nil {
		f.close()
		return nil, err
	}
	if f.joint, err = jointScenario(sys); err != nil {
		f.close()
		return nil, err
	}
	cfg := coord.Config{Scenario: f.joint}
	for _, l := range f.shards {
		cfg.ShardURLs = append(cfg.ShardURLs, l.url)
	}
	if tr != nil {
		cfg.Client = &http.Client{Timeout: 5 * time.Minute, Transport: traceTransport{base: http.DefaultTransport}}
	}
	ctx, cancel := context.WithCancel(context.Background())
	co, err := coord.New(ctx, cfg)
	if err == nil {
		f.coord, err = listen(tr.handler("coord", co.Handler()))
	}
	if err != nil {
		cancel()
		f.close()
		return nil, err
	}
	f.cancel = cancel
	go func() {
		defer close(f.runDone)
		co.Run(ctx, coordMergeEvery, os.Stderr)
	}()
	return f, nil
}

// close stops every server and the coordinator's merge loop, and waits
// for all of them.
func (f *fleet) close() {
	if f.cancel != nil {
		f.cancel()
		<-f.runDone
	}
	if f.coord != nil {
		f.coord.close()
	}
	for _, l := range f.shards {
		l.close()
	}
	if t, ok := http.DefaultTransport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
}

// allocateTotals sums the shards' Allocate counters.
func (f *fleet) allocateTotals() (calls int64, busy float64) {
	for _, c := range f.allocate {
		calls += c.calls.Load()
		busy += c.busySeconds()
	}
	return calls, busy
}

// setUpFleet starts the fleet setupReps times, timing each start, and
// keeps the last one running. It returns the median start time.
func setUpFleet(opts core.Options, tr *tracer) (*fleet, float64, error) {
	var f *fleet
	times := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		if f != nil {
			f.close()
		}
		t0 := time.Now()
		var err error
		if f, err = startFleet(opts, tr); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return f, median(times), nil
}
