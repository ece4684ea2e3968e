package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// TestOpenLoopCountsStall stalls the server once and checks that the
// requests due during the stall carry it in their latency, although each
// of them was served quickly once it was finally sent.  Timing from the
// send instead would show the stall on at most one request per client.
func TestOpenLoopCountsStall(t *testing.T) {
	const (
		rate    = 1000.0 // one request due per millisecond
		n       = 400
		clients = 2
		stallAt = 50
		stall   = 200 * time.Millisecond
	)
	var mu sync.Mutex // one request in service at a time, so the stall blocks both connections
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if r.URL.Query().Get("i") == fmt.Sprint(stallAt) {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}}
	defer client.CloseIdleConnections()

	samples := openLoop(rate, n, clients, func(i int) result {
		resp, err := client.Get(fmt.Sprintf("%s/?i=%d", srv.URL, i))
		if err != nil {
			return result{}
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		return result{ok: err == nil && resp.StatusCode == http.StatusOK, bytes: len(b)}
	})

	// Request stallAt is due at 50ms and holds the server until at least
	// 250ms, so every later request due before then ends after 250ms.  A
	// few just after it may race it to the server; skip those.
	stallEnd := time.Duration(stallAt)*time.Millisecond + stall
	var dueTimed, sendTimed int
	for i, s := range samples {
		if !s.ok {
			t.Fatalf("request %d failed", i)
		}
		if i >= stallAt+clients+2 && s.due < stallEnd && s.latency() < stallEnd-s.due {
			t.Errorf("request %d due at %v ended %v after it, before the stall ended at %v", i, s.due, s.latency(), stallEnd)
		}
		if s.latency() >= stall/2 {
			dueTimed++
		}
		if s.end-s.start >= stall/2 {
			sendTimed++
		}
	}
	if dueTimed < 80 {
		t.Errorf("%d requests took over %v from their due time, want the ~100 due in the stall's first half", dueTimed, stall/2)
	}
	if sendTimed > clients {
		t.Errorf("%d requests took over %v from their send; only the %d in flight at the stall should", sendTimed, stall/2, clients)
	}
	if late := samples[stallAt+50].late(); late < stall/2 {
		t.Errorf("request %d was sent %v late, want the stall's wait", stallAt+50, late)
	}
}
