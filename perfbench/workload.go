package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"consensus/internal/andxor"
	"consensus/internal/engine"
	"consensus/internal/types"
	"consensus/internal/workload"
)

// workloadSpec is one traffic mix.  BENCHMARK.json repeats each why.
type workloadSpec struct {
	name    string
	cluster bool // 3 fenced workers behind a durable coordinator, else one engine
	trees   int  // trees the reads target
	blocks  int  // BID blocks per tree (workload.BID, at most 2 alternatives)
	ks      []int
	aggK    int // aggregate-mean cutoff; 0 draws it from ks like the other reads
	// writeShare is the share of requests that are set-prob mutations on
	// a uniformly drawn alternative.  sideTree sends them to one extra
	// tree that no read touches instead of to the read trees.
	writeShare float64
	sideTree   bool
	rate       float64 // open-loop arrival rate, requests per second
}

var workloads = []workloadSpec{
	{
		// Every intermediate fits the 512-entry cache, so reads measure the
		// HTTP and cache-hit path and the kernel does no work.  A 5% write
		// stream to an unread tree times a lone mutation that has nothing
		// to repair, the counterpart of write-churn's repairing writes.
		name: "hot-read", trees: 8, blocks: 256, ks: []int{10}, aggK: 5,
		writeShare: 0.05, sideTree: true, rate: 1500,
	},
	{
		// Every write bumps its tree's epoch, so reads recompute from
		// repaired ranks beside the writes on one engine: kernel and repair
		// work dominate.
		name: "write-churn", trees: 4, blocks: 256, ks: []int{10}, aggK: 5,
		writeShare: 0.2, rate: 800,
	},
	{
		// The only workload through distrib (routing, hedging, fan-out,
		// snapshot refresh, WAL fsync).  48 trees at 32 cutoffs overflow
		// each worker's cache, so misses reach genfunc.
		name: "cluster-spill", cluster: true, trees: 48, blocks: 128, ks: seq(1, 32),
		writeShare: 0.05, rate: 600,
	},
}

func seq(lo, hi int) []int {
	var out []int
	for k := lo; k <= hi; k++ {
		out = append(out, k)
	}
	return out
}

func lookupWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// instance is a workload made concrete by a seed: its trees, its
// distinct reads and the alternatives its writes draw from.
type instance struct {
	spec   workloadSpec
	names  []string // every tree, read trees first
	docs   [][]byte // each tree's JSON, as registered
	bodies [][]byte // each distinct read, as a request body
	// writeTrees indexes names; alts[j] lists writeTrees[j]'s alternatives.
	writeTrees []int
	alts       [][]types.Leaf
}

// build generates the instance's trees and read set from the seed.
func build(spec workloadSpec, seed int64) (*instance, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &instance{spec: spec}
	n := spec.trees
	if spec.sideTree {
		n++
	}
	var trees []*andxor.Tree
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("t%02d", i)
		if spec.sideTree && i == spec.trees {
			name = "side"
		}
		t := workload.BID(rng, spec.blocks, 2)
		doc, err := json.Marshal(t)
		if err != nil {
			return nil, fmt.Errorf("encoding tree %s: %w", name, err)
		}
		in.names = append(in.names, name)
		in.docs = append(in.docs, doc)
		trees = append(trees, t)
	}
	var reads []engine.Request
	for i := 0; i < spec.trees; i++ {
		name, keys := in.names[i], trees[i].Keys()
		pick := []string{keys[rng.Intn(len(keys))], keys[rng.Intn(len(keys))], keys[rng.Intn(len(keys))]}
		for _, k := range spec.ks {
			aggK := spec.aggK
			if aggK == 0 {
				aggK = k
			}
			reads = append(reads,
				engine.Request{Tree: name, Op: engine.OpTopKMean, Metric: engine.MetricSymDiff, K: k},
				engine.Request{Tree: name, Op: engine.OpTopKMean, Metric: engine.MetricFootrule, K: k},
				engine.Request{Tree: name, Op: engine.OpRankDist, K: k, Keys: pick},
				engine.Request{Tree: name, Op: engine.OpAggregateMean, K: aggK},
			)
		}
		reads = append(reads,
			engine.Request{Tree: name, Op: engine.OpSizeDist},
			engine.Request{Tree: name, Op: engine.OpMedianWorld},
		)
	}
	for _, r := range reads {
		b, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		in.bodies = append(in.bodies, b)
	}
	if spec.sideTree {
		in.writeTrees = []int{spec.trees}
	} else {
		in.writeTrees = seq(0, spec.trees-1)
	}
	for _, i := range in.writeTrees {
		in.alts = append(in.alts, trees[i].LeafAlternatives())
	}
	return in, nil
}

// op is one request of a stream: a read by index, or a mutation.
type op struct {
	read  int // index into reads; -1 for a write
	write engine.Request
	body  []byte
}

// draw makes the next request of a stream from rng.
func (in *instance) draw(rng *rand.Rand) op {
	if rng.Float64() < in.spec.writeShare {
		j := rng.Intn(len(in.writeTrees))
		alt := in.alts[j][rng.Intn(len(in.alts[j]))]
		req := engine.Request{Tree: in.names[in.writeTrees[j]], Op: engine.OpMutate,
			Mutation: &engine.MutationRequest{Kind: string(andxor.UpdateSetProb), Key: alt.Key, Score: alt.Score,
				Prob: 0.05 + 0.9*rng.Float64(), Renormalize: true}}
		body, _ := json.Marshal(req) // a Request of plain fields always encodes
		return op{read: -1, write: req, body: body}
	}
	i := rng.Intn(len(in.bodies))
	return op{read: i, body: in.bodies[i]}
}

// stream makes the open-loop phase's n requests.
func (in *instance) stream(rng *rand.Rand, n int) []op {
	out := make([]op, n)
	for i := range out {
		out[i] = in.draw(rng)
	}
	return out
}
