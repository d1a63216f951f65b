package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"xbarsec/api"
	"xbarsec/internal/service"
)

// serve runs srv on a loopback listener until the test ends and
// returns the listener's address.
func serve(t *testing.T, srv *http.Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		<-served
	})
	return ln.Addr().String()
}

func TestServerReadDeadlines(t *testing.T) {
	svc := service.New(service.Config{})
	t.Cleanup(svc.Close)
	srv := newServer(svc.Handler())
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.ReadTimeout != readTimeout || srv.WriteTimeout != 0 {
		t.Fatalf("timeouts header=%v read=%v write=%v, want %v, %v, 0",
			srv.ReadHeaderTimeout, srv.ReadTimeout, srv.WriteTimeout, readHeaderTimeout, readTimeout)
	}

	// A client that declares a body and stalls after a few bytes loses
	// its connection once the read deadline passes. This copy of the
	// server shortens the deadline so the test does not wait minutes.
	srv.ReadTimeout = 200 * time.Millisecond
	conn, err := net.Dial("tcp", serve(t, srv))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, "POST %s/sessions HTTP/1.1\r\nHost: test\r\n"+
		"Content-Type: application/json\r\nContent-Length: 1000\r\n\r\n{\"victim\":", api.PathPrefix); err != nil {
		t.Fatal(err)
	}
	// ReadAll returns without error only at EOF, i.e. when the server
	// has closed the connection; a connection left open runs into this
	// client-side guard instead.
	if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("stalled body: connection still open: %v", err)
	}
}

// TestWaitLaunchOutlastsReadTimeout: the read deadline bounds reading
// the request, not the wait that follows it. A ?wait=1 launch whose job
// runs past the deadline still answers 200 with the finished job.
func TestWaitLaunchOutlastsReadTimeout(t *testing.T) {
	svc := service.New(service.Config{Workers: 2})
	t.Cleanup(svc.Close)
	srv := newServer(svc.Handler())
	srv.ReadTimeout = 50 * time.Millisecond
	url := "http://" + serve(t, srv) + api.PathPrefix + "/experiments?wait=1"

	start := time.Now()
	resp, err := http.Post(url, "application/json",
		strings.NewReader(`{"name":"ablate-search","seed":1,"scale":0.01}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed <= srv.ReadTimeout {
		t.Fatalf("job took %v, no longer than the %v read timeout", elapsed, srv.ReadTimeout)
	}
	var job api.Job
	if err := json.Unmarshal(body, &job); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d body %q (%v), want 200 with the job", resp.StatusCode, body, err)
	}
	if job.Status != api.JobDone || job.Result == nil || job.Result.Name != "ablate-search" {
		t.Fatalf("job = %+v, want ablate-search done with a result", job)
	}
}
