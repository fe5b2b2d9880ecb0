package federation

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hetsched/internal/service"
)

// TestRouterHopFraming: every way a host can frame an answer — a
// small or large Content-Length, chunked, no body at all — reaches the
// client byte-identical through the daemon-mode hop, and each leaves
// the pooled connection reusable: the whole sequence runs on one
// upstream connection.
func TestRouterHopFraming(t *testing.T) {
	large := strings.Repeat("0123456789abcdef", 1<<12) // 64 KiB, past the read buffer
	backend := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/runs/x/small":
			w.Header().Set("Content-Length", "5")
			io.WriteString(w, "hello")
		case "/v1/runs/x/large":
			w.Header().Set("Content-Length", fmt.Sprint(len(large)))
			io.WriteString(w, large)
		case "/v1/runs/x/chunked":
			io.WriteString(w, large[:10])
			w.(http.Flusher).Flush()
			io.WriteString(w, large[10:])
		case "/v1/runs/x/empty":
			w.WriteHeader(http.StatusNoContent)
		case "/v1/runs/x/echo":
			b, _ := io.ReadAll(r.Body)
			w.Header().Set("Content-Type", r.Header.Get("Content-Type"))
			w.Write(b)
		}
	}))
	var dials atomic.Int32
	backend.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			dials.Add(1)
		}
	}
	backend.Start()
	t.Cleanup(backend.Close)
	rt, err := NewRouter([]Target{{Name: "h", URL: backend.URL}}, Options{Epoch: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		method, path, body, want string
		code                     int
	}{
		{"GET", "/v1/runs/x/small", "", "hello", 200},
		{"GET", "/v1/runs/x/large", "", large, 200},
		{"GET", "/v1/runs/x/chunked", "", large, 200},
		{"GET", "/v1/runs/x/empty", "", "", 204},
		{"HEAD", "/v1/runs/x/large", "", "", 200},
		{"POST", "/v1/runs/x/echo", `{"worker":3}`, `{"worker":3}`, 200},
		{"GET", "/v1/runs/x/small", "", "hello", 200},
	} {
		req := httptest.NewRequest(c.method, c.path, strings.NewReader(c.body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		rt.ServeHTTP(rec, req)
		if rec.Code != c.code || rec.Body.String() != c.want {
			t.Errorf("%s %s: status %d, %d body bytes; want %d, %d", c.method, c.path, rec.Code, rec.Body.Len(), c.code, len(c.want))
		}
	}
	if n := dials.Load(); n != 1 {
		t.Errorf("the sequence used %d upstream connections, want 1 reused throughout", n)
	}
}

// TestRouterHopPeerRestart: a host restarted on the same address
// leaves every pooled connection to it stale. The first forward to
// hit one answers 503 + Retry-After and flushes the pool, so each
// client's poll loop sees at most one 503 — the request is not
// retried behind its back — and every later poll is served.
func TestRouterHopPeerRestart(t *testing.T) {
	svc := service.New(service.Options{GCInterval: -1})
	t.Cleanup(svc.Close)
	// warm holds the first stale requests at a barrier, so the router
	// pools exactly stale connections to the host.
	const stale, clients = 6, 3
	var warm sync.WaitGroup
	warm.Add(stale)
	var warming atomic.Bool
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if warming.Load() {
			warm.Done()
			warm.Wait()
		}
		svc.ServeHTTP(w, r)
	})
	first := httptest.NewServer(h)
	addr := first.Listener.Addr().String()
	rt, err := NewRouter([]Target{{Name: "h", URL: first.URL}}, Options{Epoch: 1})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt)
	t.Cleanup(front.Close)
	body, err := json.Marshal(service.CreateRunRequest{
		ID: "restart-run", Kernel: service.KernelOuter, N: 64, P: stale, Seed: 5, Batch: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(front.URL+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d", resp.StatusCode)
	}
	poll := func(worker int) (int, string, error) {
		resp, err := http.Post(front.URL+"/v1/runs/restart-run/next", "application/json",
			strings.NewReader(fmt.Sprintf(`{"worker":%d}`, worker)))
		if err != nil {
			return 0, "", err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode, resp.Header.Get("Retry-After"), nil
	}
	warming.Store(true)
	var wg sync.WaitGroup
	for w := 0; w < stale; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if code, _, err := poll(w); err != nil || code != http.StatusOK {
				t.Errorf("warm-up poll %d: status %d, %v", w, code, err)
			}
		}()
	}
	wg.Wait()
	warming.Store(false)

	first.Close() // closes every connection, pooled ones included
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("relisten on %s: %v", addr, err)
	}
	second := &httptest.Server{Listener: ln, Config: &http.Server{Handler: h}}
	second.Start()
	t.Cleanup(second.Close)

	var unavailable atomic.Int32
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			served, refused := 0, 0
			for i := 0; i < 10; i++ {
				code, retry, err := poll(c)
				switch {
				case err != nil:
					t.Errorf("client %d poll %d: %v", c, i, err)
					return
				case code == http.StatusServiceUnavailable && retry == "1" && served == 0:
					refused++
				case code != http.StatusOK:
					t.Errorf("client %d poll %d: status %d (Retry-After %q) after %d served", c, i, code, retry, served)
					return
				default:
					served++
				}
			}
			if refused > 1 {
				t.Errorf("client %d saw %d 503s, want at most one", c, refused)
			}
			unavailable.Add(int32(refused))
		}()
	}
	wg.Wait()
	t.Logf("%d stale connections, %d polls answered 503", stale, unavailable.Load())
}

// TestRouterSSEClientDisconnect: when the client of a forwarded per-run
// event stream goes away mid-stream, the router closes its upstream
// connection, so the host's handler ends and its subscriber is
// released.
func TestRouterSSEClientDisconnect(t *testing.T) {
	svc := service.New(service.Options{GCInterval: -1})
	t.Cleanup(svc.Close)
	backend := httptest.NewUnstartedServer(svc)
	var closed atomic.Int32
	backend.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateClosed {
			closed.Add(1)
		}
	}
	backend.Start()
	t.Cleanup(backend.Close)
	rt, err := NewRouter([]Target{{Name: "h", URL: backend.URL}}, Options{Epoch: 1})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rt.ServeHTTP(w, r)
		if strings.HasSuffix(r.URL.Path, "/events") {
			close(done)
		}
	}))
	t.Cleanup(front.Close)
	const id = "sse-gone"
	createVia(t, rt, id)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, front.URL+"/v1/runs/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// The replayed run_created frame proves the stream is live end to end.
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("reading the first frame: %v", err)
		}
		if line == "id: 1\n" {
			break
		}
	}
	if n := svc.Bus().Subscribers(); n != 1 {
		t.Fatalf("host has %d subscribers mid-stream, want 1", n)
	}
	closedBefore := closed.Load()
	cancel()

	deadline := time.After(5 * time.Second)
	select {
	case <-done:
	case <-deadline:
		backend.CloseClientConnections() // unblock the relay so cleanup can finish
		t.Fatal("router handler still relaying 5s after the client left")
	}
	for svc.Bus().Subscribers() != 0 || closed.Load() == closedBefore {
		select {
		case <-deadline:
			t.Fatalf("after the client left: %d host subscribers, upstream closed=%v",
				svc.Bus().Subscribers(), closed.Load() > closedBefore)
		case <-time.After(time.Millisecond):
		}
	}
}

// TestNewRouterRejectsURL: a remote target must be a plain-http base
// URL, the only kind the daemon-mode hop speaks.
func TestNewRouterRejectsURL(t *testing.T) {
	for _, u := range []string{"https://10.0.0.7:8080", "10.0.0.7:8080", "http://", "http://[::1"} {
		if _, err := NewRouter([]Target{{Name: "h", URL: u}}, Options{Epoch: 1}); err == nil {
			t.Errorf("NewRouter accepted target URL %q", u)
		}
	}
}
