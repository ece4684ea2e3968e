package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 < q <= 1) of xs by the nearest-rank
// rule, together with the sample count it was taken over.  An empty
// sample has no quantile: the value is 0 and n is 0, and callers report
// the count beside the value so the two cannot be confused.
func quantile(xs []float64, q float64) (v float64, n int) {
	n = len(xs)
	if n == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return s[rank-1], n
}

// median is quantile(xs, 0.5) without the count.
func median(xs []float64) float64 {
	v, _ := quantile(xs, 0.5)
	return v
}

// ratio divides num by base, reporting ok=false (and 0) for a zero base:
// a hit ratio over no lookups is undefined, not perfect.
func ratio(num, base float64) (v float64, ok bool) {
	if base == 0 {
		return 0, false
	}
	return num / base, true
}

// interval is a closed span of time, in nanoseconds since the run began.
type interval struct{ start, end int64 }

// covered returns how much of parent the children cover, counting time
// that overlapping children share once.  Children are clipped to the
// parent.  A hedged read's two attempts overlap, so summing their
// durations would overstate the time the coordinator spent waiting.
func covered(parent interval, children []interval) int64 {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		c.start = max(c.start, parent.start)
		c.end = min(c.end, parent.end)
		if c.end > c.start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
	var total int64
	var cur interval
	for i, c := range cs {
		switch {
		case i == 0:
			cur = c
		case c.start <= cur.end:
			cur.end = max(cur.end, c.end)
		default:
			total += cur.end - cur.start
			cur = c
		}
	}
	if len(cs) > 0 {
		total += cur.end - cur.start
	}
	return total
}

// selfTime is parent's duration minus the part its children cover.
func selfTime(parent interval, children []interval) int64 {
	return parent.end - parent.start - covered(parent, children)
}

// windowedQuantile takes the q-quantile within each window and returns
// the median of those, the total sample count and each window's
// quantile.  A single stall (a GC cycle, a WAL compaction) then moves one
// window's figure, not the reported one.  Empty windows are skipped.
func windowedQuantile(windows [][]float64, q float64) (v float64, n int, per []float64) {
	for _, w := range windows {
		if len(w) > 0 {
			wv, wn := quantile(w, q)
			per = append(per, wv)
			n += wn
		}
	}
	return median(per), n, per
}
