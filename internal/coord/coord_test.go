package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"powerroute/internal/core"
	"powerroute/internal/energy"
	"powerroute/internal/routing"
	"powerroute/internal/server"
	"powerroute/internal/sim"
)

// testWorld builds the small deterministic world (1-month market, 7-day
// trace) with an optimizer reach of 1000 km, which splits the fleet into
// two market regions (California vs everything east).
func testWorld(t testing.TB) (*core.System, sim.Scenario) {
	t.Helper()
	sys, err := core.NewSystem(core.Options{Seed: 42, MarketMonths: 1, TraceDays: 7})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := routing.NewPriceOptimizer(sys.Fleet, 1000, routing.DefaultPriceThreshold)
	if err != nil {
		t.Fatal(err)
	}
	return sys, sim.Scenario{
		Fleet:         sys.Fleet,
		Policy:        opt,
		Energy:        energy.OptimisticFuture,
		Market:        sys.Market,
		Demand:        sys.LongRun,
		Start:         sys.Market.Start,
		Steps:         sys.Market.Hours,
		Step:          time.Hour,
		ReactionDelay: sim.DefaultReactionDelay,
	}
}

// newShards splits sc into its routing components and serves each from a
// real server.Server behind httptest.
func newShards(t testing.TB, sc sim.Scenario) []string {
	t.Helper()
	p, err := sim.PartitionByRouting(sc.Policy.(routing.Sharder), sc.Fleet)
	if err != nil {
		t.Fatal(err)
	}
	subs, err := sc.Shard(p)
	if err != nil {
		t.Fatal(err)
	}
	urls := make([]string, len(subs))
	for i, sub := range subs {
		eng, err := sim.NewEngine(sub)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := server.New(server.Config{Engine: eng})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	return urls
}

func newCoordinator(t testing.TB, sc sim.Scenario, urls []string) (*Coordinator, *httptest.Server) {
	t.Helper()
	co, err := New(context.Background(), Config{Scenario: sc, ShardURLs: urls})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(co.Handler())
	t.Cleanup(ts.Close)
	return co, ts
}

func postBody(t *testing.T, url, contentType string, body []byte, wantCode int) []byte {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantCode {
		t.Fatalf("POST %s: got %d want %d: %s", url, resp.StatusCode, wantCode, out)
	}
	return out
}

func get(t *testing.T, url string, wantCode int) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s: got %d want %d: %s", url, resp.StatusCode, wantCode, out)
	}
	return out
}

// feedWorld streams `hours` of generated prices and long-run demand into
// baseURL as binary batches, exactly as the replay load generator does.
func feedWorld(t *testing.T, sys *core.System, sc sim.Scenario, baseURL string, hours int) {
	t.Helper()
	hubs := sys.Market.Hubs()
	hubIDs := make([]string, len(hubs))
	for i, h := range hubs {
		hubIDs[i] = h.ID
	}
	var pb bytes.Buffer
	if err := server.WriteBatchHeader(&pb, "prices", sc.Start, sc.Step, hours, len(hubIDs), hubIDs); err != nil {
		t.Fatal(err)
	}
	row := make([]float64, len(hubIDs))
	for i := 0; i < hours; i++ {
		at := sc.Start.Add(time.Duration(i) * sc.Step)
		for j, h := range hubs {
			rt, err := sys.Market.RT(h.ID)
			if err != nil {
				t.Fatal(err)
			}
			v, err := rt.At(at)
			if err != nil {
				t.Fatal(err)
			}
			row[j] = v
		}
		pb.Write(server.AppendRow(nil, row))
	}
	postBody(t, baseURL+"/v1/prices", server.ContentTypePricesBatch, pb.Bytes(), http.StatusOK)

	ns := len(sc.Fleet.States)
	var db bytes.Buffer
	if err := server.WriteBatchHeader(&db, "demand", sc.Start, sc.Step, hours, ns, nil); err != nil {
		t.Fatal(err)
	}
	var demand []float64
	for i := 0; i < hours; i++ {
		demand = sc.Demand.Rates(sc.Start.Add(time.Duration(i)*sc.Step), demand)
		db.Write(server.AppendRow(nil, demand))
	}
	postBody(t, baseURL+"/v1/demand", server.ContentTypeDemandBatch, db.Bytes(), http.StatusOK)
}

// TestCoordinatorMatchesSingleInstance feeds the same price and demand
// batches through the coordinator (fanning out to two real shard daemons)
// and through one single-instance daemon serving the unsplit world, then
// requires the fleet-wide /v1/status to match bit for bit (modulo the
// price_feed_entries bookkeeping, which is per-process).
func TestCoordinatorMatchesSingleInstance(t *testing.T) {
	sys, sc := testWorld(t)
	const hours = 14 * 24

	// Single instance.
	singleEng, err := sim.NewEngine(sc)
	if err != nil {
		t.Fatal(err)
	}
	singleSrv, err := server.New(server.Config{Engine: singleEng})
	if err != nil {
		t.Fatal(err)
	}
	single := httptest.NewServer(singleSrv.Handler())
	defer single.Close()
	feedWorld(t, sys, sc, single.URL, hours)

	// Coordinator over two shards.
	_, scForShards := testWorld(t)
	urls := newShards(t, scForShards)
	if len(urls) != 2 {
		t.Fatalf("expected 2 shards, got %d", len(urls))
	}
	_, coordTS := newCoordinator(t, sc, urls)
	feedWorld(t, sys, sc, coordTS.URL, hours)

	normalize := func(raw []byte) map[string]any {
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		delete(m, "price_feed_entries")
		return m
	}
	want := normalize(get(t, single.URL+"/v1/status", http.StatusOK))
	got := normalize(get(t, coordTS.URL+"/v1/status?refresh=1", http.StatusOK))
	wantJSON, _ := json.Marshal(want)
	gotJSON, _ := json.Marshal(got)
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Fatalf("coordinator status differs from single instance:\ncoord  %s\nsingle %s", gotJSON, wantJSON)
	}

	// The merged checkpoint restores into the joint world at the same
	// cursor.
	raw := get(t, coordTS.URL+"/v1/checkpoint", http.StatusOK)
	cp, err := sim.DecodeCheckpoint(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if cp.StepsRun != hours {
		t.Fatalf("merged checkpoint at step %d, want %d", cp.StepsRun, hours)
	}
	if _, err := sim.Restore(sc, cp); err != nil {
		t.Fatalf("merged checkpoint does not restore into the joint world: %v", err)
	}

	// Metrics render from the merged snapshot.
	metrics := string(get(t, coordTS.URL+"/metrics", http.StatusOK))
	if !bytes.Contains([]byte(metrics), []byte("powerrouted_steps_total")) {
		t.Fatalf("metrics missing steps counter:\n%s", metrics)
	}

	// JSON single-step demand also fans out (after one more price post the
	// shards can cover the next hour).
	at := sc.Start.Add(time.Duration(hours) * sc.Step)
	var demand []float64
	demand = sc.Demand.Rates(at, demand)
	post := map[string]any{"at": at, "rates": demand}
	body, _ := json.Marshal(post)
	postBody(t, coordTS.URL+"/v1/demand", "application/json", body, http.StatusOK)
}

// burstWorld assembles the burst-exact clique world (2 regions at
// 1000 km) and its joint scenario, the configuration under which sharded
// replays stay byte-identical even while soft-cap bursts fire.
func burstWorld(t testing.TB) (*core.System, *core.BurstWorld, sim.Scenario) {
	t.Helper()
	sys, err := core.NewSystem(core.Options{Seed: 42, MarketMonths: 1, TraceDays: 7})
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := core.ParseBurstHubs("NP15+SP15,NYC+DOM")
	if err != nil {
		t.Fatal(err)
	}
	bw, err := sys.BurstWorld(pairs, 1000, routing.DefaultPriceThreshold)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := sys.BurstScenario(bw, 1000, routing.DefaultPriceThreshold, sim.DefaultReactionDelay)
	if err != nil {
		t.Fatal(err)
	}
	return sys, bw, sc
}

// newBurstShards carves the burst scenario into lease-replaying shard
// daemons: each sub-engine reads its gate bits from a LeaseStore the
// daemon exposes on POST /v1/leases.
func newBurstShards(t testing.TB, sc sim.Scenario) []string {
	t.Helper()
	p, err := sim.PartitionByRouting(sc.Policy.(routing.Sharder), sc.Fleet)
	if err != nil {
		t.Fatal(err)
	}
	subs, err := sc.Shard(p)
	if err != nil {
		t.Fatal(err)
	}
	urls := make([]string, len(subs))
	for i, sub := range subs {
		store := &sim.LeaseStore{}
		sub.BurstGate = store
		eng, err := sim.NewEngine(sub)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := server.New(server.Config{Engine: eng, Leases: store})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	return urls
}

// TestCoordinatorBurstLeaseBroker is the fleet-exact burst guarantee at
// the coordinator layer: an active-burst horizon fanned out through the
// coordinator (which brokers the lease windows) must produce the same
// fleet-wide status, byte for byte, as one daemon serving the unsplit
// world under SelfGate — with burst tokens genuinely granted and spent.
func TestCoordinatorBurstLeaseBroker(t *testing.T) {
	sys, _, jointSc := burstWorld(t)
	hours := jointSc.Steps - 1

	jointSc.BurstGate = sim.SelfGate{}
	singleEng, err := sim.NewEngine(jointSc)
	if err != nil {
		t.Fatal(err)
	}
	singleSrv, err := server.New(server.Config{Engine: singleEng})
	if err != nil {
		t.Fatal(err)
	}
	single := httptest.NewServer(singleSrv.Handler())
	defer single.Close()
	feedWorld(t, sys, jointSc, single.URL, hours)

	_, _, shardSc := burstWorld(t)
	urls := newBurstShards(t, shardSc)
	if len(urls) != 2 {
		t.Fatalf("expected 2 shards, got %d", len(urls))
	}
	_, _, coordSc := burstWorld(t)
	coordSc.BurstGate = sim.SelfGate{}
	_, coordTS := newCoordinator(t, coordSc, urls)
	feedWorld(t, sys, coordSc, coordTS.URL, hours)

	// The JSON single-step path brokers too: one more interval, posted as
	// a JSON demand vector, must carry its lease bit ahead of the demand.
	at := jointSc.Start.Add(time.Duration(hours) * jointSc.Step)
	var row []float64
	row = jointSc.Demand.Rates(at, row)
	body, _ := json.Marshal(map[string]any{"at": at, "rates": row})
	postBody(t, single.URL+"/v1/demand", "application/json", body, http.StatusOK)
	postBody(t, coordTS.URL+"/v1/demand", "application/json", body, http.StatusOK)

	normalize := func(raw []byte) ([]byte, map[string]any) {
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		delete(m, "price_feed_entries")
		out, _ := json.Marshal(m)
		return out, m
	}
	wantJSON, want := normalize(get(t, single.URL+"/v1/status", http.StatusOK))
	gotJSON, _ := normalize(get(t, coordTS.URL+"/v1/status?refresh=1", http.StatusOK))
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("brokered coordinator status differs from the unsplit daemon:\ncoord  %s\nsingle %s", gotJSON, wantJSON)
	}
	leases, ok := want["burst_leases"].(map[string]any)
	if !ok {
		t.Fatalf("status carries no burst_leases section: %s", wantJSON)
	}
	if used, _ := leases["tokens_used"].(float64); used <= 0 {
		t.Fatalf("burst gate never spent a token over the horizon: %v", leases)
	}
}

// TestCoordinatorRejectsShardCountMismatch: a URL list that cannot match
// the joint world's routing partition fails New before any shard is
// contacted (the URLs here are dead on purpose).
func TestCoordinatorRejectsShardCountMismatch(t *testing.T) {
	_, sc := testWorld(t)
	_, err := New(context.Background(), Config{Scenario: sc, ShardURLs: []string{
		"http://127.0.0.1:1", "http://127.0.0.1:2", "http://127.0.0.1:3",
	}})
	if err == nil || !strings.Contains(err.Error(), "market regions") {
		t.Fatalf("3 URLs for a 2-region world: got %v, want a partition-count error", err)
	}
}

// TestCoordinatorDegradedReads: a shard dying mid-replay turns fan-outs
// into tagged ErrShardUnreachable failures, while status reads fall back
// to the last merged snapshot and say so via X-Coord-Degraded.
func TestCoordinatorDegradedReads(t *testing.T) {
	sys, sc := testWorld(t)
	p, err := sim.PartitionByRouting(sc.Policy.(routing.Sharder), sc.Fleet)
	if err != nil {
		t.Fatal(err)
	}
	subs, err := sc.Shard(p)
	if err != nil {
		t.Fatal(err)
	}
	servers := make([]*httptest.Server, len(subs))
	urls := make([]string, len(subs))
	for i, sub := range subs {
		eng, err := sim.NewEngine(sub)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := server.New(server.Config{Engine: eng})
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = httptest.NewServer(srv.Handler())
		t.Cleanup(servers[i].Close)
		urls[i] = servers[i].URL
	}
	co, coordTS := newCoordinator(t, sc, urls)

	const hours = 24
	feedWorld(t, sys, sc, coordTS.URL, hours)
	get(t, coordTS.URL+"/v1/status?refresh=1", http.StatusOK) // cache a merged snapshot

	servers[0].Close() // shard 0 dies mid-replay

	// Ingest fan-out reports the unreachable shard as such.
	if _, err := co.refresh(context.Background()); !errors.Is(err, ErrShardUnreachable) {
		t.Fatalf("refresh with a dead shard: got %v, want ErrShardUnreachable", err)
	}

	// A forced refresh degrades to the cached snapshot instead of failing.
	resp, err := http.Get(coordTS.URL + "/v1/status?refresh=1")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded status: got %d: %s", resp.StatusCode, body)
	}
	if h := resp.Header.Get("X-Coord-Degraded"); !strings.Contains(h, "unreachable") {
		t.Fatalf("degraded status header %q does not name the unreachable shard", h)
	}
	var status struct {
		Steps int `json:"steps"`
	}
	if err := json.Unmarshal(body, &status); err != nil {
		t.Fatal(err)
	}
	if status.Steps != hours {
		t.Fatalf("degraded status serves step %d, want the last merged %d", status.Steps, hours)
	}

	// The cached (unforced) read stays clean — no degradation marker.
	resp, err = http.Get(coordTS.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Coord-Degraded") != "" {
		t.Fatalf("cached status: code %d, degraded %q", resp.StatusCode, resp.Header.Get("X-Coord-Degraded"))
	}

	// Demand fan-out fails loudly, naming the shard.
	at := sc.Start.Add(hours * sc.Step)
	var row []float64
	row = sc.Demand.Rates(at, row)
	body, _ = json.Marshal(map[string]any{"at": at, "rates": row})
	out := postBody(t, coordTS.URL+"/v1/demand", "application/json", body, http.StatusBadGateway)
	if !strings.Contains(string(out), "unreachable") {
		t.Fatalf("demand fan-out error does not tag the unreachable shard: %s", out)
	}
}

// TestCoordinatorConcurrentRefreshes: forced status reads from several
// clients, beside a background merge loop, all restore from the one base
// engine at once — the first of them included, so nothing has touched the
// base engine before. Under -race this pins that the shared engine is
// only read; every read must serve the same fleet-wide status,
// undegraded.
func TestCoordinatorConcurrentRefreshes(t *testing.T) {
	sys, sc := testWorld(t)
	urls := newShards(t, sc)
	co, coordTS := newCoordinator(t, sc, urls)
	const hours = 48
	feedWorld(t, sys, sc, coordTS.URL, hours)

	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan struct{})
	go func() {
		defer close(runDone)
		co.Run(ctx, time.Millisecond, testErrWriter{t, ctx})
	}()
	defer func() {
		cancel()
		<-runDone
	}()

	const readers, reads = 4, 5
	bodies := make([][]byte, readers*reads)
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < reads; j++ {
				resp, err := http.Get(coordTS.URL + "/v1/status?refresh=1")
				if err != nil {
					t.Error(err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Coord-Degraded") != "" {
					t.Errorf("status read: code %d, degraded %q: %s", resp.StatusCode, resp.Header.Get("X-Coord-Degraded"), body)
					return
				}
				bodies[i*reads+j] = body
			}
		}()
	}
	wg.Wait()
	want := get(t, coordTS.URL+"/v1/status?refresh=1", http.StatusOK)
	for _, body := range bodies {
		if body != nil && !bytes.Equal(body, want) {
			t.Fatalf("concurrent status read differs:\ngot  %s\nwant %s", body, want)
		}
	}
}

// testErrWriter stands in for the background merge loop's error log: it
// fails the test with anything written before ctx ends. A merge cut off
// by the cancellation itself logs the cancellation, which is expected.
type testErrWriter struct {
	t   *testing.T
	ctx context.Context
}

func (w testErrWriter) Write(p []byte) (int, error) {
	if w.ctx.Err() == nil {
		w.t.Errorf("background merge: %s", bytes.TrimSpace(p))
	}
	return len(p), nil
}

// TestCoordinatorRejectsUnbuildableWorld: a joint world the engine
// refuses (here a negative soft cap, which only engine construction
// checks) fails New at startup, before any shard is contacted, instead
// of failing every later status read.
func TestCoordinatorRejectsUnbuildableWorld(t *testing.T) {
	_, sc := testWorld(t)
	sc.SoftCaps = make([]float64, len(sc.Fleet.Clusters))
	sc.SoftCaps[0] = -1
	_, err := New(context.Background(), Config{Scenario: sc, ShardURLs: []string{"http://127.0.0.1:1", "http://127.0.0.1:2"}})
	if err == nil || !strings.Contains(err.Error(), "negative cap") {
		t.Fatalf("New with an unbuildable joint world: got %v, want a negative-cap error", err)
	}
}

// TestCoordinatorBodyCaps: a JSON demand post past maxDemandJSON answers
// 413 before anything fans out, and a read that overruns any
// MaxBytesReader cap (the price path's included) maps to 413, not 400.
func TestCoordinatorBodyCaps(t *testing.T) {
	_, sc := testWorld(t)
	co, _ := newCoordinator(t, sc, newShards(t, sc))
	rates := append([]byte(`{"rates":[`), bytes.Repeat([]byte("0,"), maxDemandJSON/2)...)
	for _, tc := range []struct {
		name string
		body []byte
	}{
		{"whitespace", append(bytes.Repeat([]byte(" "), maxDemandJSON+1), "{}"...)},
		{"rates", append(rates, "0]}"...)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest(http.MethodPost, "/v1/demand", bytes.NewReader(tc.body))
			req.Header.Set("Content-Type", "application/json")
			rec := httptest.NewRecorder()
			co.Handler().ServeHTTP(rec, req)
			if rec.Code != http.StatusRequestEntityTooLarge {
				t.Fatalf("%d-byte demand post: %d, want 413: %s", len(tc.body), rec.Code, rec.Body)
			}
		})
	}
	if code := bodyErrorCode(fmt.Errorf("reading: %w", &http.MaxBytesError{Limit: maxPriceBody})); code != http.StatusRequestEntityTooLarge {
		t.Errorf("wrapped MaxBytesError maps to %d, want 413", code)
	}
	if code := bodyErrorCode(io.ErrUnexpectedEOF); code != http.StatusBadRequest {
		t.Errorf("truncated body maps to %d, want 400", code)
	}
}

// TestCoordinatorDiscoveryRejectsBadTopologies: shards that overlap, miss
// clusters, or disagree on the policy must fail New loudly.
func TestCoordinatorDiscoveryRejectsBadTopologies(t *testing.T) {
	_, sc := testWorld(t)
	urls := newShards(t, sc)

	ctx := context.Background()
	if _, err := New(ctx, Config{Scenario: sc}); err == nil {
		t.Error("no shard URLs accepted")
	}
	if _, err := New(ctx, Config{Scenario: sc, ShardURLs: urls[:1]}); err == nil {
		t.Error("incomplete shard cover accepted")
	}
	if _, err := New(ctx, Config{Scenario: sc, ShardURLs: []string{urls[0], urls[0]}}); err == nil {
		t.Error("duplicated shard accepted")
	}

	// A shard serving the whole world overlaps any real shard.
	wholeEng, err := sim.NewEngine(sc)
	if err != nil {
		t.Fatal(err)
	}
	wholeSrv, err := server.New(server.Config{Engine: wholeEng})
	if err != nil {
		t.Fatal(err)
	}
	whole := httptest.NewServer(wholeSrv.Handler())
	defer whole.Close()
	if _, err := New(ctx, Config{Scenario: sc, ShardURLs: []string{whole.URL, urls[1]}}); err == nil {
		t.Error("overlapping shards accepted")
	}

	// Policy mismatch: shards run a different optimizer reach.
	_, sc600 := testWorld(t)
	opt600, err := routing.NewPriceOptimizer(sc600.Fleet, 600, routing.DefaultPriceThreshold)
	if err != nil {
		t.Fatal(err)
	}
	sc600.Policy = opt600
	urls600 := newShards(t, sc600)
	if _, err := New(ctx, Config{Scenario: sc, ShardURLs: urls600}); err == nil {
		t.Error("shards with a different policy accepted")
	}
}
