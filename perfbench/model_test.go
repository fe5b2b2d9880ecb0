package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"hetsched/internal/service"
)

func TestFleetPollsInVirtualTimeOrder(t *testing.T) {
	// Worker 0 is twice as fast as worker 1.
	f := newFleet([]float64{2, 1}, []int{0, 1})
	var order []int
	for i := 0; i < 6; i++ {
		w, ok := f.pop()
		if !ok {
			t.Fatalf("poll %d: no worker ready", i)
		}
		order = append(order, w)
		f.settle(w, service.StatusOK, []int64{int64(i)})
	}
	// Finishing times: w0 at 0.5, 1, 1.5, 2; w1 at 1, 2. Ties go to the
	// lower id.
	if got := fmt.Sprint(order); got != "[0 1 0 0 1 0]" {
		t.Errorf("poll order %s, want [0 1 0 0 1 0]", got)
	}
	if got := f.held[0]; len(got) != 1 || got[0] != 5 {
		t.Errorf("worker 0 holds %v, want [5]", got)
	}
}

func TestFleetRetiresOnWaitAndDone(t *testing.T) {
	f := newFleet([]float64{1, 1}, []int{0, 1})
	w0, _ := f.pop()
	w1, _ := f.pop()
	if _, ok := f.pop(); ok {
		t.Fatal("a worker with a poll in flight was handed out again")
	}
	f.settle(w0, service.StatusWait, nil)
	if f.drained() {
		t.Fatal("drained with a poll in flight")
	}
	f.settle(w1, service.StatusDone, nil)
	if !f.drained() {
		t.Fatal("not drained after every worker retired")
	}
}

func TestLedgerCatchesDoubleGrants(t *testing.T) {
	l := newLedger(8)
	if bad := l.grant([]int64{0, 1, 2}, 3); bad != 0 {
		t.Fatalf("fresh grant flagged %d tasks", bad)
	}
	if bad := l.grant([]int64{2, 3, 9, -1}, 1); bad != 3 {
		t.Errorf("re-grant and out-of-range flagged %d tasks, want 3", bad)
	}
	st := service.StatsResponse{Total: 8, Assigned: 8, Completed: 8, State: service.StateComplete, Blocks: 4}
	if bad := l.verify(st); len(bad) != 1 || !strings.Contains(bad[0], "4 of 8 tasks granted") {
		t.Errorf("verify = %q, want only the missing grants", bad)
	}
	l.grant([]int64{4, 5, 6, 7}, 0)
	if bad := l.verify(st); len(bad) != 0 {
		t.Errorf("verify of a clean run = %q", bad)
	}
	st.Completed, st.Blocks = 7, 5
	if bad := l.verify(st); len(bad) != 2 {
		t.Errorf("verify = %q, want the completion and block mismatches", bad)
	}
}

func TestHTTPConnReadsBothFramings(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/chunked" {
			w.Write([]byte(strings.Repeat("a", 5000)))
			w.(http.Flusher).Flush()
			w.Write([]byte("end"))
			return
		}
		w.Header().Set("Content-Type", r.Header.Get("Accept"))
		w.WriteHeader(http.StatusTeapot)
		fmt.Fprintf(w, "%s %s", r.Method, r.Header.Get("Content-Type"))
	}))
	defer srv.Close()
	var dials atomic.Int64
	hc := newHTTPConn(strings.TrimPrefix(srv.URL, "http://"), &dials)
	defer hc.close()
	for i := 0; i < 3; i++ {
		code, body, err := hc.do(http.MethodPost, "/x", "text/plain", "a/b", []byte("hi"))
		if err != nil || code != http.StatusTeapot || string(body) != "POST text/plain" {
			t.Fatalf("do = %d %q %v", code, body, err)
		}
		code, body, err = hc.do(http.MethodGet, "/chunked", "", "", nil)
		if err != nil || code != http.StatusOK || len(body) != 5003 || !strings.HasSuffix(string(body), "aend") {
			t.Fatalf("chunked do = %d, %d bytes, %v", code, len(body), err)
		}
	}
	if n := dials.Load(); n != 1 {
		t.Errorf("dialled %d connections for keep-alive requests, want 1", n)
	}
}
