package server

import (
	"net/http"
	"time"
)

// Edge timeouts bound how long one client connection may hold a daemon's
// listener: a client that trickles its request header (slow loris), stalls
// mid-body, or idles on a keep-alive connection is dropped instead of
// pinning a goroutine and a socket forever. They are variables only so
// tests can shorten them.
var (
	// ReadHeaderTimeout bounds reading a request's header.
	ReadHeaderTimeout = 10 * time.Second
	// ReadTimeout bounds reading a whole request, body included. Binary
	// demand batches route while they decode, so it must cover the
	// slowest batch a feed posts (tracegen's 1024-step batches take well
	// under a second).
	ReadTimeout = 2 * time.Minute
	// IdleTimeout bounds the wait for the next request on a keep-alive
	// connection.
	IdleTimeout = 2 * time.Minute
)

// NewHTTPServer returns the http.Server both daemons (powerrouted and
// powerroute-coord) serve h with, bounded by the edge timeouts.
func NewHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: ReadHeaderTimeout,
		ReadTimeout:       ReadTimeout,
		IdleTimeout:       IdleTimeout,
	}
}
