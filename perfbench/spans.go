package main

import (
	"fmt"
	"os"
	"time"

	"consensus/internal/engine"
)

// layerMetrics derives the per-layer metrics of a traced open-loop phase
// from its samples, its spans and the engines' counters around it.
func layerMetrics(got map[string]float64, open []sample, spans []span, before, after engine.Stats, attempted int) {
	var late []float64
	var bytes, shed float64
	for _, s := range open {
		late = append(late, ms(s.late()))
		bytes += float64(s.bytes)
		if s.shed {
			shed++
		}
	}
	got["loadgen.late_p50_ms"] = pct("loadgen.late_p50_ms", late, 0.5, 0)
	got["loadgen.late_p99_ms"] = pct("loadgen.late_p99_ms", late, 0.99, 0)
	got["loadgen.read_p99_ms"] = pct("loadgen.read_p99_ms", latenciesMs(open, false, nil), 0.99, 0)
	got["loadgen.write_p99_ms"] = pct("loadgen.write_p99_ms", latenciesMs(open, true, nil), 0.99, 0)
	tracedP50 := pct("read_p50_ms, traced half", latenciesMs(open, false, func(s sample) bool { return s.traced }), 0.5, 0)
	plainP50 := pct("read_p50_ms, untraced half", latenciesMs(open, false, func(s sample) bool { return !s.traced }), 0.5, 0)
	got["loadgen.trace_overhead_read_p50_ms"] = tracedP50 - plainP50

	got["http.resp_bytes_per_req"], _ = ratio(bytes, float64(len(open)))
	hits, computes := float64(after.Hits-before.Hits), float64(after.Computes-before.Computes)
	got["engine.hit_ratio"], _ = ratio(hits, hits+computes)
	got["engine.computes_per_req"], _ = ratio(computes, float64(attempted))
	got["engine.shed_ratio"], _ = ratio(shed, float64(attempted))
	fmt.Fprintf(os.Stderr, "perfbench:   engine.hit_ratio %.4f of %.0f lookups; %.0f computes over %d requests; %.0f shed\n",
		got["engine.hit_ratio"], hits+computes, computes, attempted, shed)

	kids := map[uint64][]span{}
	for _, sp := range spans {
		if sp.Parent != 0 {
			kids[sp.Parent] = append(kids[sp.Parent], sp)
		}
	}
	var httpSelf, engRead, engWrite, coordRead, coordWrite, rpcs, workerSelf []float64
	var reads, writes, rpcsRead, rpcsWrite, snapBytes float64
	for _, sp := range spans {
		switch sp.Name {
		case spanClient:
			for _, c := range kids[sp.ID] {
				if !sp.Write && (c.Name == spanEngine || c.Name == spanCoordinator) {
					httpSelf = append(httpSelf, us(sp.dur()-c.dur()))
				}
			}
		case spanEngine, spanWorkerEngine:
			if sp.Write {
				engWrite = append(engWrite, us(sp.dur()))
			} else {
				engRead = append(engRead, us(sp.dur()))
			}
		case spanCoordinator:
			var ivs []interval
			var snap float64
			for _, c := range kids[sp.ID] {
				if c.Name == spanRPC {
					ivs = append(ivs, c.interval())
					if c.Kind == "snapshot" {
						snap += float64(c.Bytes)
					}
				}
			}
			self := selfTime(sp.interval(), ivs)
			if sp.Write {
				coordWrite = append(coordWrite, ms(time.Duration(self)))
				writes++
				rpcsWrite += float64(len(ivs))
				snapBytes += snap
			} else {
				coordRead = append(coordRead, us(self))
				reads++
				rpcsRead += float64(len(ivs))
			}
		case spanRPC:
			rpcs = append(rpcs, us(sp.dur()))
		case spanWorkerHTTP:
			for _, c := range kids[sp.ID] {
				if c.Name == spanWorkerEngine {
					workerSelf = append(workerSelf, us(sp.dur()-c.dur()))
				}
			}
		}
	}
	got["http.self_p50_us"] = pct("http.self_p50_us", httpSelf, 0.5, 0)
	got["engine.read_p50_us"] = pct("engine.read_p50_us", engRead, 0.5, 0)
	got["engine.write_p50_us"] = pct("engine.write_p50_us", engWrite, 0.5, 0)
	got["distrib.read_self_p50_us"] = pct("distrib.read_self_p50_us", coordRead, 0.5, 0)
	got["distrib.write_self_p50_ms"] = pct("distrib.write_self_p50_ms", coordWrite, 0.5, 0)
	got["distrib.rpc_p50_us"] = pct("distrib.rpc_p50_us", rpcs, 0.5, 0)
	got["distrib.worker_http_self_p50_us"] = pct("distrib.worker_http_self_p50_us", workerSelf, 0.5, 0)
	got["distrib.rpcs_per_read"], _ = ratio(rpcsRead, reads)
	got["distrib.rpcs_per_write"], _ = ratio(rpcsWrite, writes)
	got["distrib.snapshot_bytes_per_write"], _ = ratio(snapBytes, writes)
	fmt.Fprintf(os.Stderr, "perfbench:   distrib: %.0f rpcs over %.0f traced reads, %.0f over %.0f traced writes, %.0f snapshot bytes\n",
		rpcsRead, reads, rpcsWrite, writes, snapBytes)
}
