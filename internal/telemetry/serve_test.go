package telemetry

import (
	"context"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"unap2p/internal/sim"
	"unap2p/internal/transport"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestServeMetricsAndPprof(t *testing.T) {
	net, hosts := testNet(1)
	k := sim.NewKernel()
	tr := transport.New(net, k)
	p := NewRecorder(Config{Interval: 10})
	p.ObserveTransport(tr)
	p.ObserveKernel(k)

	srv, err := Serve("127.0.0.1:0", p.LatestSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	// Before the first tick the endpoint answers with an empty snapshot.
	code, body := get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d before first sample", code)
	}

	k.At(5, func() { tr.Send(hosts[0], hosts[1], 100, "ping") })
	k.At(15, func() {})
	k.Drain() // probe ticks at 10: snapshot now caches the ping

	code, body = get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if !strings.Contains(body, "unap2p_") {
		t.Fatalf("/metrics has no unap2p_ series:\n%s", body)
	}
	if !strings.Contains(body, "ping") {
		t.Fatalf("/metrics does not include the observed ping counter:\n%s", body)
	}

	code, body = get(t, base+"/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ status %d body %.60q", code, body)
	}
}

// TestServeEphemeralPort pins the ":0" contract the in-process cluster
// harness depends on: the listener binds an ephemeral port, Addr reports
// the real one, and cancelling the context shuts the server down cleanly
// and releases it (a second bind of the same port succeeds).
func TestServeEphemeralPort(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	srv, err := ServeContext(ctx, ":0", nil)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	_, port, err := net.SplitHostPort(addr)
	if err != nil {
		t.Fatalf("Addr %q is not host:port: %v", addr, err)
	}
	if port == "0" || port == "" {
		t.Fatalf("Addr %q did not resolve the ephemeral port", addr)
	}
	code, _ := get(t, "http://127.0.0.1:"+port+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d on ephemeral port", code)
	}

	cancel()
	if err := srv.Close(); err != nil && err != http.ErrServerClosed {
		t.Fatalf("Close after cancel: %v", err)
	}
	// The port must be free again; retry briefly in case the kernel is
	// slow to tear the socket down.
	deadline := time.Now().Add(2 * time.Second)
	for {
		ln, err := net.Listen("tcp", addr)
		if err == nil {
			ln.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("port %s not released after shutdown: %v", port, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := http.Get("http://127.0.0.1:" + port + "/metrics"); err == nil {
		t.Fatal("server still answering after context cancellation")
	}
}

// TestServeCloseIdempotent pins that Close is safe to call repeatedly and
// concurrently with context cancellation.
func TestServeCloseIdempotent(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	srv, err := ServeContext(ctx, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	for i := 0; i < 3; i++ {
		srv.Close()
	}
}

func TestServeNilSource(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	code, _ := get(t, "http://"+srv.Addr()+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d with nil source", code)
	}
}
