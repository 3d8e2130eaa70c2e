package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestNewHTTPServerDropsStalledHeader: a slow-loris client — request line
// and one header, never the blank line that ends the header — is
// disconnected without a response once ReadHeaderTimeout passes, while a
// prompt client is still served.
func TestNewHTTPServerDropsStalledHeader(t *testing.T) {
	defer func(d time.Duration) { ReadHeaderTimeout = d }(ReadHeaderTimeout)
	ReadHeaderTimeout = 150 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) { io.WriteString(w, "ok\n") })
	srv := NewHTTPServer(mux)
	go srv.Serve(ln)
	defer srv.Close()
	addr := ln.Addr().String()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	fmt.Fprintf(conn, "GET /healthz HTTP/1.1\r\nHost: %s\r\n", addr)
	conn.SetReadDeadline(start.Add(10 * time.Second))
	n, err := conn.Read(make([]byte, 512))
	var ne net.Error
	switch {
	case errors.As(err, &ne) && ne.Timeout():
		t.Fatal("server kept a stalled request header open for 10 s")
	case err == nil:
		t.Fatalf("server answered a half-sent header with %d bytes", n)
	}
	if took := time.Since(start); took < 100*time.Millisecond {
		t.Errorf("stalled header dropped after %v, before the 150 ms header timeout", took)
	}

	prompt, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer prompt.Close()
	fmt.Fprintf(prompt, "GET /healthz HTTP/1.1\r\nHost: %s\r\n\r\n", addr)
	resp, err := http.ReadResponse(bufio.NewReader(prompt), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("prompt request: status %d", resp.StatusCode)
	}
}

func TestNewHTTPServerSetsEdgeTimeouts(t *testing.T) {
	srv := NewHTTPServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Errorf("edge timeouts %v/%v/%v: every bound must be set", srv.ReadHeaderTimeout, srv.ReadTimeout, srv.IdleTimeout)
	}
}
