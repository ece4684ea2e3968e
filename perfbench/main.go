// Command perfbench is the repository's end-to-end serving benchmark.  It
// starts the consensus server in its own process (one engine, or three
// fenced workers behind a durable coordinator) on loopback HTTP, drives
// it with an open-loop phase at a fixed rate and then a closed-loop phase
// with one client per CPU, checks every answer against an in-process
// reference engine, and prints one JSON line of metrics.
//
//	bash perfbench/run.sh --workload hot-read --seed 1 --seconds 30 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 records spans at the
// layer boundaries, prints the per-layer metrics and writes the spans to
// .bench_build.  Details go to standard error.  A wrong answer exits 1.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"slices"
	"sync/atomic"
	"syscall"
	"time"
)

// outDir holds the coordinator WALs and span dumps.
const outDir = ".bench_build"

// setupRuns is how many times an untraced run sets the system up; it
// reports the median.
const setupRuns = 3

// Shares of --seconds: an unmeasured lead-in at the open-loop rate, in
// which the cache settles from the warm-up's order to the mix's working
// set and the heap grows to its working size; the measured open loop;
// and the closed loop, which gets the rest.
const (
	leadShare = 0.1
	openShare = 0.55
)

// The gated figures are medians over equal time slices of their phase,
// so one stall moves one slice, not the figure: at most maxWindows
// slices, and for a percentile only as many as keep minPerWindow samples
// in each.  Rarer request kinds are pooled into one slice, where a
// median over a few hundred samples is steadier than a median of
// medians over fewer.
const (
	maxWindows   = 5
	minPerWindow = 500
)

func main() {
	workloadName := flag.String("workload", "", "workload name: hot-read, write-churn or cluster-spill")
	seed := flag.Int64("seed", 1, "seed for trees and request streams")
	seconds := flag.Float64("seconds", 30, "measured time per run")
	trace := flag.Int("trace", 0, "1 records spans and prints per-layer metrics")
	flag.Parse()
	spec, ok := lookupWorkload(*workloadName)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (hot-read|write-churn|cluster-spill), --seconds > 0, --trace 0|1\n")
		os.Exit(2)
	}
	rep, err := run(spec, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		if rep == nil {
			os.Exit(1)
		}
	}
	line, jerr := json.Marshal(rep)
	if jerr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", jerr)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

// run measures one workload.  A set-up failure returns no report; a wrong
// answer returns a report with Correct false and the error.
func run(spec workloadSpec, seed int64, seconds time.Duration, traced bool) (*report, error) {
	conns := runtime.NumCPU()
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	var tr *tracer
	runs := setupRuns
	if traced {
		tr, runs = newTracer(), 1
	}

	// Set-up: build the seeded trees, start the servers, register every
	// tree and warm each distinct read once.  Earlier set-ups are torn
	// down; the last one serves the run.
	var (
		setups []float64
		sys    *system
		in     *instance
		warmed [][]byte
	)
	for r := 0; r < runs; r++ {
		if sys != nil {
			sys.close()
		}
		runtime.GC()
		start := time.Now()
		var err error
		if in, err = build(spec, seed); err != nil {
			return nil, err
		}
		dataDir := ""
		if spec.cluster {
			if dataDir, err = os.MkdirTemp(outDir, "wal-"); err != nil {
				return nil, err
			}
		}
		if sys, err = startSystem(spec, tr, dataDir, conns); err != nil {
			return nil, err
		}
		if err = sys.register(in); err == nil {
			warmed, err = sys.warm(in, conns)
		}
		if err != nil {
			sys.close()
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer sys.close()

	ref, err := newReference(in)
	if err != nil {
		return nil, err
	}
	// Reads of trees no write touches must equal the reference byte for
	// byte, during warm-up and on every answer of the run.
	var expect [][]byte
	var mismatches atomic.Int64
	var firstMismatch atomic.Value
	if spec.sideTree {
		expect = ref.bodies(in)
		for i := range warmed {
			if !bytes.Equal(warmed[i], expect[i]) {
				return &report{}, fmt.Errorf("warm-up read %s answered %.200s, reference %.200s", in.bodies[i], warmed[i], expect[i])
			}
		}
	}

	var acked acks
	var ackErr atomic.Value
	send := func(o op, withTrace bool) result {
		var tc traceCtx
		var start int64
		if withTrace {
			tc, start = traceCtx{req: tr.newID(), parent: tr.newID()}, tr.now()
		}
		status, body, err := sys.do(http.MethodPost, "/v1/query", o.body, tc)
		if withTrace {
			tr.record(span{Name: spanClient, ID: tc.parent, Req: tc.req, Start: start, End: tr.now(), Write: o.read < 0})
		}
		res := result{write: o.read < 0, traced: withTrace, bytes: len(body)}
		res.ok = err == nil && status == http.StatusOK && !isErrorBody(body)
		res.shed = isShed(body)
		switch {
		case !res.ok:
		case o.read >= 0 && expect != nil && !bytes.Equal(body, expect[o.read]):
			if mismatches.Add(1) == 1 {
				firstMismatch.Store(fmt.Sprintf("read %s answered %.200s, reference %.200s", o.body, body, expect[o.read]))
			}
		case o.read < 0:
			if err := acked.add(o.write, body); err != nil {
				ackErr.CompareAndSwap(nil, err)
			}
		}
		return res
	}

	// Open loop at the workload's rate.  A traced run traces every other
	// request, so the untraced half gives the tracing overhead.
	leadDur := time.Duration(float64(seconds) * leadShare)
	openDur := time.Duration(float64(seconds) * openShare)
	nLead, n := int(spec.rate*leadDur.Seconds()), int(spec.rate*openDur.Seconds())
	stream := in.stream(rand.New(rand.NewSource(seed+1)), nLead+n)
	lead := openLoop(spec.rate, nLead, conns, func(i int) result { return send(stream[i], false) })
	stream = stream[nLead:]
	// Every measured phase starts from a fresh GC cycle, so runs do not
	// differ by where the collector happened to be.
	runtime.GC()
	before, cpu0 := sys.stats(), cpuTime()
	open := openLoop(spec.rate, n, conns, func(i int) result { return send(stream[i], traced && i%2 == 0) })
	cpu := cpuTime() - cpu0
	after := sys.stats()

	// Closed loop: one client per CPU running the same mix back to back.
	var closed []sample
	var closedDur time.Duration
	if !traced {
		rngs := make([]*rand.Rand, conns)
		for c := range rngs {
			rngs[c] = rand.New(rand.NewSource(seed*1000 + int64(c) + 2))
		}
		runtime.GC()
		closed, closedDur = closedLoop(seconds-leadDur-openDur, conns, func(c int) result {
			return send(in.draw(rngs[c]), false)
		})
	}

	all := slices.Concat(lead, open, closed)
	rep := &report{Correct: true, Attempted: len(all)}
	for _, s := range all {
		if !s.ok {
			rep.Failed++
		}
	}
	var errs []error
	if m := mismatches.Load(); m > 0 {
		errs = append(errs, fmt.Errorf("%d reads differ from the reference; first: %s", m, firstMismatch.Load()))
	}
	if err, _ := ackErr.Load().(error); err != nil {
		errs = append(errs, err)
	}
	if err := ref.replay(acked.list); err != nil {
		errs = append(errs, err)
	} else if err := finalCheck(sys, ref, in); err != nil {
		errs = append(errs, err)
	}
	if err := errors.Join(errs...); err != nil {
		rep.Correct = false
		return rep, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d+%d open-loop requests at %.0f/s, %d closed-loop, %d failed, %d mutations replayed, answers match the reference\n",
		spec.name, seed, len(lead), len(open), spec.rate, len(closed), rep.Failed, len(acked.list))

	got := map[string]float64{}
	if !traced {
		endToEndMetrics(got, setups, open, closed, closedDur, cpu, openDur)
		got["success_ratio"], _ = ratio(float64(rep.Attempted-rep.Failed), float64(rep.Attempted))
		rep.Metrics, err = collect(endToEnd, got)
		return rep, err
	}

	layerMetrics(got, open, tr.snapshot(), before, after, len(open))
	kt, err := timeKernels(in, 2*time.Second, conns, rand.New(rand.NewSource(seed+3)))
	if err != nil {
		return nil, err
	}
	got["genfunc.compile_ms"] = median(kt.compile)
	got["genfunc.ranks_ms"] = median(kt.ranks)
	got["genfunc.repair_ms"] = median(kt.repair)
	got["andxor.decode_ms"] = median(kt.decode)
	got["andxor.encode_ms"] = median(kt.encode)
	if err := tr.write(traceFile(outDir, spec.name, seed)); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	rep.Metrics, err = collect(perLayer, got)
	for _, d := range perLayer {
		fmt.Fprintf(os.Stderr, "perfbench:   %-34s %12.4f %-5s should move %s; should not move %s\n",
			d.name, got[d.name], d.unit, d.moves, d.steady)
	}
	return rep, err
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// latencyMs is a sample's latency in ms.  A failed request missed every
// latency limit, so it counts as +Inf.
func latencyMs(s sample) float64 {
	if !s.ok {
		return math.Inf(1)
	}
	return ms(s.latency())
}

// latenciesMs returns the latencies of the samples of one kind, in ms,
// keeping only those keep accepts (all when keep is nil).
func latenciesMs(ss []sample, write bool, keep func(sample) bool) []float64 {
	var out []float64
	for _, s := range ss {
		if s.write == write && (keep == nil || keep(s)) {
			out = append(out, latencyMs(s))
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(ns int64) float64        { return float64(ns) / float64(time.Microsecond) }

// pct reports the q-quantile of xs and logs it with its sample count.  A
// quantile that lands on a failed request is reported as the phase
// length, the most any request could have waited.
func pct(label string, xs []float64, q float64, limit time.Duration) float64 {
	return pctWindows(label, [][]float64{xs}, q, limit)
}

// pctWindows is pct over the median of per-window quantiles.
func pctWindows(label string, ws [][]float64, q float64, limit time.Duration) float64 {
	v, n, per := windowedQuantile(ws, q)
	if math.IsInf(v, 1) {
		v = ms(limit)
	}
	fmt.Fprintf(os.Stderr, "perfbench:   %-34s %10.4f  (n=%d", label, v, n)
	if len(per) > 1 {
		fmt.Fprintf(os.Stderr, "; windows %.4f", per)
	}
	fmt.Fprintln(os.Stderr, ")")
	return v
}

// latencyWindows splits the latencies of one kind of open-loop samples
// into equal slices of the phase by due time: an odd number of slices,
// at most maxWindows, with about minPerWindow samples or more in each.
func latencyWindows(ss []sample, write bool, phase time.Duration) [][]float64 {
	n := 0
	for _, s := range ss {
		if s.write == write {
			n++
		}
	}
	w := max(1, min(maxWindows, n/minPerWindow))
	if w%2 == 0 {
		w--
	}
	out := make([][]float64, w)
	for _, s := range ss {
		if s.write == write {
			i := window(s.due, phase, w)
			out[i] = append(out[i], latencyMs(s))
		}
	}
	return out
}

// window is the slice of a phase, cut into n equal slices, that t is in.
func window(t, phase time.Duration, n int) int {
	return max(0, min(int(int64(t)*int64(n)/int64(phase)), n-1))
}

func endToEndMetrics(got map[string]float64, setups []float64, open, closed []sample, closedDur, cpu, openDur time.Duration) {
	got["setup_s"] = median(setups)
	fmt.Fprintf(os.Stderr, "perfbench:   %-34s %10.4f  (median of %v)\n", "setup_s", got["setup_s"], setups)
	reads, writes := latencyWindows(open, false, openDur), latencyWindows(open, true, openDur)
	got["read_p50_ms"] = pctWindows("read_p50_ms", reads, 0.5, openDur)
	got["read_p90_ms"] = pctWindows("read_p90_ms", reads, 0.9, openDur)
	got["write_p50_ms"] = pctWindows("write_p50_ms", writes, 0.5, openDur)
	got["write_p90_ms"] = pctWindows("write_p90_ms", writes, 0.9, openDur)
	// Throughput is the median window's successes per second, by when
	// each request ended.
	per := make([]float64, maxWindows)
	for _, s := range closed {
		if s.ok {
			per[window(s.end, closedDur, maxWindows)]++
		}
	}
	for w := range per {
		per[w] /= closedDur.Seconds() / maxWindows
	}
	got["throughput_rps"] = median(per)
	fmt.Fprintf(os.Stderr, "perfbench:   %-34s %10.1f  (n=%d; windows %.1f)\n", "throughput_rps", got["throughput_rps"], len(closed), per)
	got["cpu_us_per_req"] = float64(cpu/time.Microsecond) / float64(len(open))
	got["peak_rss_mb"] = peakRSSMB()
}
