package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"powerroute/internal/cluster"
	"powerroute/internal/routing"
)

// Span headers carry the causing span and the request id across the
// loopback hops: the generator stamps its requests, and the
// coordinator's outbound shard calls are stamped by traceTransport from
// the request context the coordinator derives them from.
const (
	hdrParent = "X-Perfbench-Parent"
	hdrReq    = "X-Perfbench-Req"
)

// span is one timed interval at a layer boundary. Start and End are
// offsets from the tracer's origin.
type span struct {
	Name   string        `json:"name"`
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent,omitempty"`
	Req    uint64        `json:"req,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	origin time.Time
	ids    atomic.Uint64

	mu    sync.Mutex
	spans []span // guarded by mu
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() time.Duration { return time.Since(t.origin) }

func (t *tracer) newID() uint64 { return t.ids.Add(1) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeFile dumps every span as one JSON object per line.
func (t *tracer) writeFile(name string) error {
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type spanKey struct{}

// spanRef is the active span a handler's context carries.
type spanRef struct{ id, req uint64 }

// handler wraps h so every request records a span named
// "<layer>.<last path element>", e.g. coord.demand or server.checkpoint.
// The parent and request id come from the span headers, and the new span
// rides the request context to any outbound call h makes. With a nil
// tracer h is returned as is.
func (t *tracer) handler(layer string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseUint(r.Header.Get(hdrParent), 10, 64)
		req, _ := strconv.ParseUint(r.Header.Get(hdrReq), 10, 64)
		s := span{Name: layer + "." + path.Base(r.URL.Path), ID: t.newID(), Parent: parent, Req: req, Start: t.now()}
		ctx := context.WithValue(r.Context(), spanKey{}, spanRef{id: s.ID, req: req})
		h.ServeHTTP(w, r.WithContext(ctx))
		s.End = t.now()
		t.record(s)
	})
}

// traceTransport stamps outbound requests with the span their context
// carries, making the callee's span a child of the caller's.
type traceTransport struct{ base http.RoundTripper }

func (tt traceTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if ref, ok := r.Context().Value(spanKey{}).(spanRef); ok {
		r = r.Clone(r.Context())
		r.Header.Set(hdrParent, strconv.FormatUint(ref.id, 10))
		r.Header.Set(hdrReq, strconv.FormatUint(ref.req, 10))
	}
	return tt.base.RoundTrip(r)
}

// busyCounter aggregates calls and busy time at a boundary crossed too
// often for one span per call (Allocate, Step).
type busyCounter struct {
	calls atomic.Int64
	busy  atomic.Int64 // nanoseconds
}

func (c *busyCounter) add(d time.Duration) {
	c.calls.Add(1)
	c.busy.Add(int64(d))
}

func (c *busyCounter) busySeconds() float64 { return time.Duration(c.busy.Load()).Seconds() }

// timedPolicy times every Allocate of the policy it wraps. It forwards
// Name, so world hashes are unchanged, and routing.Sharder, so the
// wrapped policy still partitions and shards.
type timedPolicy struct {
	inner routing.Sharder
	rec   *busyCounter
}

func (p *timedPolicy) Name() string { return p.inner.Name() }

func (p *timedPolicy) Allocate(ctx *routing.Context, assign [][]float64) error {
	t0 := time.Now()
	err := p.inner.Allocate(ctx, assign)
	p.rec.add(time.Since(t0))
	return err
}

func (p *timedPolicy) Candidates(s int) []int { return p.inner.Candidates(s) }

func (p *timedPolicy) ShardPolicy(sub *cluster.Fleet) (routing.Policy, error) {
	return p.inner.ShardPolicy(sub)
}

// selfTime is s's duration minus the part of it that the children's
// intervals cover; overlapping children count once.
func selfTime(s span, children []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, s.Start), min(c.End, s.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo <= cur.hi:
			cur.hi = max(cur.hi, v.hi)
		default:
			covered += cur.hi - cur.lo
			cur = v
		}
	}
	if len(ivs) > 0 {
		covered += cur.hi - cur.lo
	}
	return s.dur() - covered
}

// spanLayers folds spans into per-layer metrics: calls and busy seconds
// per span name, self seconds for coordinator spans, the shard skew of
// each demand fan-out, and the shard checkpoint pulls per status read.
func spanLayers(spans []span, out map[string]float64) {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var reads, pulls float64
	for _, s := range spans {
		out[s.Name+".calls"]++
		out[s.Name+".busy_s"] += s.dur().Seconds()
		kids := children[s.ID]
		switch s.Name {
		case "coord.prices", "coord.demand", "coord.status":
			out[s.Name+".self_s"] += selfTime(s, kids).Seconds()
		}
		switch s.Name {
		case "coord.demand":
			if len(kids) > 1 {
				lo, hi := kids[0].dur(), kids[0].dur()
				for _, k := range kids[1:] {
					lo, hi = min(lo, k.dur()), max(hi, k.dur())
				}
				out["server.demand.skew_s"] += (hi - lo).Seconds()
			}
		case "coord.status":
			reads++
			for _, k := range kids {
				if k.Name == "server.checkpoint" {
					pulls++
				}
			}
		}
	}
	if reads > 0 {
		out["coord.refresh.pulls_per_read"] = pulls / (fleetShards * reads)
	}
}
