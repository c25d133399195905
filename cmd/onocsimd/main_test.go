package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// End-to-end drain: boot the daemon, start a long self-correction over HTTP,
// deliver the shutdown signal mid-loop (the test cancels the same context
// signal.NotifyContext would), and verify the client still receives a valid
// parked partial result and run() exits cleanly.
func TestDaemonSIGTERMDrainsAndParks(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, options{addr: "127.0.0.1:0", drain: 30 * time.Second, quick: true},
			func(addr net.Addr) { ready <- addr })
	}()
	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr.String()
	case err := <-done:
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}

	// Long-running correction: fixed far-off seed + heavy damping give the
	// loop ~60 rounds of boundaries to park at.
	body := `{"op":"correct","network":"optical","config":{
		"system":{"cores":16},
		"workload":{"kernel":"stencil","scale":4,"iterations":2},
		"sctm":{"max_iterations":500,"tolerance_cycles":0,"makespan_tolerance":0,
			"damping":0.9,"seed":"fixed","initial_latency_cycles":5000},
		"max_cycles":5000000}}`
	resp, err := http.Post(base+"/v1/simulate?stream=sse", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// Read the SSE stream; after the first computed progress event (the
	// capture finishing means the correction loop is next), deliver the
	// "signal". The final result event must report a parked run.
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	var event string
	var result []byte
	signalled := false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			switch event {
			case "progress":
				if !signalled && strings.Contains(line, `"computed"`) {
					signalled = true
					cancel() // SIGTERM
				}
			case "result", "error":
				result = []byte(strings.TrimPrefix(line, "data: "))
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !signalled {
		t.Fatal("never saw a computed progress event to signal on")
	}
	if result == nil {
		t.Fatal("stream ended without a result event")
	}
	var env struct {
		Version int             `json:"version"`
		Status  string          `json:"status"`
		Table   json.RawMessage `json:"table"`
	}
	if err := json.Unmarshal(result, &env); err != nil {
		t.Fatalf("bad result payload %s: %v", result, err)
	}
	if env.Status != "parked" || len(env.Table) == 0 {
		t.Fatalf("expected parked partial result, got %s", result)
	}

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon did not shut down cleanly: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not exit after drain")
	}

	// The listener is really gone.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("daemon still serving after shutdown")
	}
}

// A daemon with nothing in flight shuts down promptly on signal.
func TestDaemonIdleShutdown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, options{addr: "127.0.0.1:0", drain: 10 * time.Second},
			func(addr net.Addr) { ready <- addr })
	}()
	var base string
	select {
	case addr := <-ready:
		base = fmt.Sprintf("http://%s", addr)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("idle shutdown failed: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("idle daemon did not exit")
	}
}

// A client that stalls partway through its request headers is disconnected
// once the header timeout expires, instead of holding the connection open.
func TestDaemonDropsStalledHeaders(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, options{addr: "127.0.0.1:0", drain: 10 * time.Second},
			func(addr net.Addr) { ready <- addr })
	}()
	var addr net.Addr
	select {
	case addr = <-ready:
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := conn.Write([]byte("POST /v1/simulate HTTP/1.1\r\nHost: onocsimd\r\nContent-Type: applic")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(start.Add(readHeaderTimeout + 10*time.Second))
	buf := make([]byte, 512)
	for {
		if _, err = conn.Read(buf); err != nil {
			break
		}
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("stalled client still connected after %v", time.Since(start))
	}
	// The server starts its header clock when it accepts, a little before
	// start; half the timeout is slack enough to tell the timeout apart
	// from an immediate rejection.
	if held := time.Since(start); held < readHeaderTimeout/2 {
		t.Fatalf("connection closed after %v, long before the %v header timeout (%v)", held, readHeaderTimeout, err)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown failed: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not exit")
	}
}
