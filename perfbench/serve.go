package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"powerroute/internal/server"
	"powerroute/internal/sim"
)

// replayChunk is one week of hourly rows: each replay post carries 168
// rows of prices, then 168 rows of demand.
const replayChunk = 168

// client is one generator connection. It never retries: a transport
// error, a non-2xx answer or a degraded read is counted as failed.
type client struct {
	hc  *http.Client
	tr  *tracer
	req uint64
}

func newClient(tr *tracer) *client {
	return &client{tr: tr, hc: &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// nextRequest starts a new request id for the spans of one operation.
func (c *client) nextRequest() {
	if c.tr != nil {
		c.req = c.tr.newID()
	}
}

// do sends one request and returns the body of a 2xx answer. degraded
// reports an X-Coord-Degraded answer, which the caller counts as failed.
func (c *client) do(method, url, contentType string, body []byte) (resp []byte, degraded bool, err error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, false, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if c.tr != nil {
		req.Header.Set(hdrReq, strconv.FormatUint(c.req, 10))
	}
	r, err := c.hc.Do(req)
	if err != nil {
		return nil, false, err
	}
	defer r.Body.Close()
	b, err := io.ReadAll(r.Body)
	if err != nil {
		return nil, false, err
	}
	if r.StatusCode/100 != 2 {
		return nil, false, fmt.Errorf("%s %s: %s: %s", method, url, r.Status, bytes.TrimSpace(b))
	}
	return b, r.Header.Get("X-Coord-Degraded") != "", nil
}

// serving is a fleet run's shared tail: the books read, the gate, and
// the traced layers.
type serving struct {
	cfg   config
	tr    *tracer
	feed  *feed
	fleet *fleet
	out   *outcome
}

// startServing builds the generator's inputs (gen.build_s) and brings
// the fleet up (setup_s).
func startServing(cfg config, tr *tracer) (*serving, error) {
	s := &serving{cfg: cfg, tr: tr, out: newOutcome()}
	t0 := time.Now()
	var err error
	if s.feed, err = newFeed(cfg.opts); err != nil {
		return nil, err
	}
	s.out.layers["gen.build_s"] = time.Since(t0).Seconds()
	var setup float64
	if s.fleet, setup, err = setUpFleet(cfg.opts, tr); err != nil {
		return nil, err
	}
	s.out.e2e["setup_s"] = setup
	return s, nil
}

// finish reads the merged books, stops the fleet and checks the books
// against a joint reference engine stepped through the same rows.
// A traced run then times the reference's Finalize.
func (s *serving) finish(steps int) error {
	c := newClient(nil)
	got, _, err := c.do(http.MethodGet, s.fleet.coord.url+"/v1/status?refresh=1", "", nil)
	c.close()
	s.fleet.close()
	if err != nil {
		return err
	}
	traced := s.tr != nil
	ref, err := newReference(s.cfg.opts, s.feed, traced)
	if err != nil {
		return err
	}
	ref.perturb = s.cfg.perturb
	if err := checkBooks(got, ref, steps, traced); err != nil {
		return gateError{err}
	}
	if !traced {
		return nil
	}
	if err := ref.timeFinalize(); err != nil {
		return err
	}
	s.out.referenceLayers(ref)
	calls, busy := s.fleet.allocateTotals()
	s.out.layers["routing.allocate.calls"] = float64(calls)
	s.out.layers["routing.allocate.busy_s"] = busy
	return nil
}

// runReplay is the closed-loop catch-up feeder: one connection posting
// week-long binary price and demand batches back to back, cycling the
// price horizon, until the run's time is up.
func runReplay(cfg config, tr *tracer) (*outcome, error) {
	s, err := startServing(cfg, tr)
	if err != nil {
		return nil, err
	}
	out := s.out
	c := newClient(tr)
	defer c.close()
	var pb, db bytes.Buffer
	var demandMS, genMS []float64
	steps := 0
	url := s.fleet.coord.url
	var failure error
	t0 := time.Now()
	last := t0
	steal := startSteal()
	for time.Since(t0) < cfg.seconds {
		if err := s.feed.appendBatches(&pb, &db, steps, replayChunk); err != nil {
			s.fleet.close()
			return nil, err
		}
		c.nextRequest()
		genMS = append(genMS, float64(time.Since(last))/float64(time.Millisecond))
		out.attempted++
		if _, _, err := c.do(http.MethodPost, url+"/v1/prices", server.ContentTypePricesBatch, pb.Bytes()); err != nil {
			out.failed++
			failure = err
			break
		}
		out.attempted++
		d0 := time.Now()
		_, _, err := c.do(http.MethodPost, url+"/v1/demand", server.ContentTypeDemandBatch, db.Bytes())
		last = time.Now()
		if err != nil {
			out.failed++
			failure = err
			break
		}
		demandMS = append(demandMS, float64(last.Sub(d0))/float64(time.Millisecond))
		steps += replayChunk
	}
	elapsed := time.Since(t0).Seconds()
	out.layers["bench.steal_ratio"] = steal.ratio()
	out.layers["bench.peak_rss_mb"] = peakRSSMB()
	out.e2e["rate_per_s"] = float64(steps) / elapsed
	out.e2e["p50_ms"] = percentile(demandMS, 0.5)
	out.e2e["tail_ms"] = percentile(demandMS, 0.95)
	out.layers["gen.late_p99_ms"] = percentile(genMS, 0.99)
	out.notef("replay_steps_per_s %.1f 1/s, replay_demand_p50_ms %.4f ms, replay_demand_p95_ms %.4f ms, replay_demand_p99_ms %.4f ms (%d demand posts, %.1f%% of CPU stolen by the host)",
		out.e2e["rate_per_s"], out.e2e["p50_ms"], out.e2e["tail_ms"], percentile(demandMS, 0.99), len(demandMS), 100*out.layers["bench.steal_ratio"])
	if failure != nil {
		s.fleet.close()
		return out, fmt.Errorf("replay post failed: %w", failure)
	}
	return out, s.finish(steps)
}

// runLive is the open-loop mix on two connections: a feeder posting each
// hour as its own JSON price + demand pair at cfg.liveRate intervals/s,
// and a dashboard reading GET /v1/status?refresh=1 at cfg.readRate/s.
// Both time each operation from when it was due; the workload reports
// the reads.
func runLive(cfg config, tr *tracer) (*outcome, error) {
	s, err := startServing(cfg, tr)
	if err != nil {
		return nil, err
	}
	out := s.out
	n := int(cfg.liveRate * cfg.seconds.Seconds())
	t0 := time.Now()
	prices, demand := make([][]byte, n), make([][]byte, n)
	for k := range prices {
		if prices[k], demand[k], err = s.feed.jsonBodies(k); err != nil {
			s.fleet.close()
			return nil, err
		}
	}
	out.layers["gen.build_s"] += time.Since(t0).Seconds()

	url := s.fleet.coord.url
	var (
		wg                  sync.WaitGroup
		intervalMS, lateMS  []float64
		readMS              []float64
		feedErr             error
		posts, routed       int
		readFails, degraded int
	)
	start := time.Now().Add(10 * time.Millisecond)
	steal := startSteal()
	due := func(i int, rate float64) time.Time {
		return start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		c := newClient(tr)
		defer c.close()
		prevDone := start
		for k := 0; k < n; k++ {
			at := due(k, cfg.liveRate)
			time.Sleep(time.Until(at))
			sent := time.Now()
			lateMS = append(lateMS, float64(sent.Sub(maxTime(at, prevDone)))/float64(time.Millisecond))
			c.nextRequest()
			for _, p := range [...]struct {
				path string
				body []byte
			}{{"/v1/prices", prices[k]}, {"/v1/demand", demand[k]}} {
				posts++
				if _, _, err := c.do(http.MethodPost, url+p.path, "application/json", p.body); err != nil {
					feedErr = err
					return
				}
			}
			prevDone = time.Now()
			intervalMS = append(intervalMS, float64(prevDone.Sub(at))/float64(time.Millisecond))
			routed++
		}
	}()
	go func() {
		defer wg.Done()
		c := newClient(tr)
		defer c.close()
		end := start.Add(cfg.seconds)
		for j := 0; ; j++ {
			at := due(j, cfg.readRate)
			if !at.Before(end) {
				return
			}
			time.Sleep(time.Until(at))
			c.nextRequest()
			_, deg, err := c.do(http.MethodGet, url+"/v1/status?refresh=1", "", nil)
			switch {
			case err != nil:
				readFails++
			case deg:
				degraded++
			default:
				readMS = append(readMS, float64(time.Since(at))/float64(time.Millisecond))
			}
		}
	}()
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	out.layers["bench.steal_ratio"] = steal.ratio()
	out.layers["bench.peak_rss_mb"] = peakRSSMB()
	reads := len(readMS) + readFails + degraded
	out.attempted = posts + reads
	out.failed = readFails + degraded
	if feedErr != nil {
		out.failed++
	}
	out.layers["coord.degraded_reads"] = float64(degraded)
	out.layers["gen.late_p99_ms"] = percentile(lateMS, 0.99)
	out.e2e["rate_per_s"] = float64(len(readMS)) / elapsed
	out.e2e["p50_ms"] = percentile(readMS, 0.5)
	out.e2e["tail_ms"] = percentile(readMS, 0.90)
	out.notef("live_interval_p50_ms %.4f ms, live_interval_p95_ms %.4f ms, live_interval_p99_ms %.4f ms (%d intervals at %g/s, %.1f%% of CPU stolen by the host)",
		percentile(intervalMS, 0.5), percentile(intervalMS, 0.95), percentile(intervalMS, 0.99), routed, cfg.liveRate, 100*out.layers["bench.steal_ratio"])
	out.notef("live_status_p50_ms %.4f ms, live_status_p90_ms %.4f ms, live_status_p95_ms %.4f ms (%d reads at %g/s, %d degraded, %d failed)",
		percentile(readMS, 0.5), percentile(readMS, 0.90), percentile(readMS, 0.95), len(readMS), cfg.readRate, degraded, readFails)
	if feedErr != nil {
		s.fleet.close()
		return out, fmt.Errorf("live feed failed: %w", feedErr)
	}
	if err := s.finish(routed); err != nil || tr == nil {
		return out, err
	}
	return out, timeCheckpoints(s.fleet, out)
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// timeCheckpoints times the read path's stages on the shards' final
// state, off the clock and with the fleet stopped: each shard's
// Checkpoint, Encode and DecodeCheckpoint, then MergeCheckpoints and
// Restore into the joint world. Each figure is the median of
// checkpointReps repetitions, summed over shards where both do it. Only
// the live mix reads; a long replay's state would take too much memory
// to copy this many times.
func timeCheckpoints(f *fleet, out *outcome) error {
	var take, enc, dec, merge, restore []float64
	var size float64
	for rep := 0; rep < checkpointReps; rep++ {
		var tk, en, de time.Duration
		parts := make([]*sim.Checkpoint, len(f.engines))
		size = 0
		for i, eng := range f.engines {
			t0 := time.Now()
			cp, err := eng.Checkpoint()
			if err != nil {
				return err
			}
			t1 := time.Now()
			var buf bytes.Buffer
			if err := cp.Encode(&buf); err != nil {
				return err
			}
			t2 := time.Now()
			size += float64(buf.Len())
			if parts[i], err = sim.DecodeCheckpoint(&buf); err != nil {
				return err
			}
			tk, en, de = tk+t1.Sub(t0), en+t2.Sub(t1), de+time.Since(t2)
		}
		t0 := time.Now()
		merged, err := sim.MergeCheckpoints(parts)
		if err != nil {
			return err
		}
		t1 := time.Now()
		if _, err := sim.Restore(f.joint, merged); err != nil {
			return err
		}
		take, enc, dec = append(take, tk.Seconds()), append(enc, en.Seconds()), append(dec, de.Seconds())
		merge, restore = append(merge, t1.Sub(t0).Seconds()), append(restore, time.Since(t1).Seconds())
	}
	out.layers["sim.checkpoint.take_s"] = median(take)
	out.layers["sim.checkpoint.bytes"] = size
	out.layers["sim.checkpoint.encode_s"] = median(enc)
	out.layers["sim.checkpoint.decode_s"] = median(dec)
	out.layers["sim.merge_s"] = median(merge)
	out.layers["sim.restore_s"] = median(restore)
	return nil
}
