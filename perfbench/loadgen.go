package main

import (
	"sync"
	"time"
)

// result is what one request reported back to the load generator.
type result struct {
	write  bool // a mutation, not a read
	traced bool // carried a request id, so the servers recorded spans
	ok     bool // status 200 with an answer, not an error body
	shed   bool // refused by admission control (code overloaded)
	bytes  int  // response body size
}

// sample is one request's timeline, in time since its phase began.
type sample struct {
	result
	due, start, end time.Duration
}

// latency is the request's latency counted from when it was due, so a
// request stuck behind a stall carries the stall even though it was sent
// late.  A closed loop's due time is its send time.
func (s sample) latency() time.Duration { return s.end - s.due }

// late is how long after its due time the request was actually sent.
func (s sample) late() time.Duration { return s.start - s.due }

// openLoop sends n requests at a constant rate: request i is due at
// i/rate after the phase starts, whether or not earlier ones have been
// answered.  After each wakeup the dispatcher queues every request
// already due, and `clients` senders (one connection each) drain the
// queue.  The senders are the only concurrency, so when they fall behind
// the backlog waits in the queue and its wait counts in each request's
// latency instead of lowering the offered rate (no coordinated omission).
func openLoop(rate float64, n, clients int, send func(i int) result) []sample {
	out := make([]sample, n)
	due := func(i int) time.Duration { return time.Duration(float64(i) / rate * float64(time.Second)) }
	queue := make(chan int, n) // sized to the number of sends: the dispatcher never blocks
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				start := time.Since(t0)
				r := send(i)
				out[i] = sample{result: r, due: due(i), start: start, end: time.Since(t0)}
			}
		}()
	}
	for i := 0; i < n; {
		if wait := due(i) - time.Since(t0); wait > 0 {
			time.Sleep(wait)
		}
		now := time.Since(t0)
		for ; i < n && due(i) <= now; i++ {
			queue <- i
		}
	}
	close(queue)
	wg.Wait()
	return out
}

// closedLoop runs `clients` senders back to back for d: each sends its
// next request only after the previous one answered.  send receives the
// client number.  It returns every sample and the phase's wall time.
func closedLoop(d time.Duration, clients int, send func(client int) result) ([]sample, time.Duration) {
	per := make([][]sample, clients)
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				start := time.Since(t0)
				if start >= d {
					return
				}
				r := send(c)
				per[c] = append(per[c], sample{result: r, due: start, start: start, end: time.Since(t0)})
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(t0)
	var out []sample
	for _, s := range per {
		out = append(out, s...)
	}
	return out, elapsed
}
