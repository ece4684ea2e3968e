// Sensor network monitoring — the kind of application Section 1 of the
// paper motivates (model-driven data acquisition, Deshpande et al.).
//
// Each sensor reports a noisy temperature; calibration gives a small
// discrete posterior over true readings (attribute-level uncertainty), and
// flaky sensors may have dropped out entirely (tuple-level uncertainty).
// The operator wants one deterministic "hottest sensors" list to act on.
// This example builds the BID database, compares the consensus top-k
// answers with the prior ranking semantics, and shows how the choice of
// distance metric changes the answer.
//
// Run with: go run ./examples/sensornet
package main

import (
	"fmt"
	"log"
	"maps"
	"math/rand"
	"slices"

	consensus "consensus"
)

// reading is one calibrated posterior sample for a sensor.
type reading struct {
	temp float64
	prob float64
}

func main() {
	// Posterior readings per sensor.  Probabilities per sensor sum to at
	// most 1; the deficit is the probability the sensor was down.
	sensors := map[string][]reading{
		"s1-roof":    {{41.2, 0.5}, {38.9, 0.4}},                // hot, reliable
		"s2-lobby":   {{25.1, 0.95}},                            // cool, very reliable
		"s3-server":  {{45.3, 0.35}, {35.2, 0.35}, {30.8, 0.2}}, // hot but noisy
		"s4-garage":  {{33.4, 0.6}, {32.1, 0.3}},
		"s5-kitchen": {{39.7, 0.45}, {28.4, 0.45}},
		"s6-attic":   {{44.1, 0.25}, {29.5, 0.55}},
	}

	// Blocks in sorted name order: map order would change the tree, and
	// with it the seeded sampling answers, from run to run.
	var blocks []consensus.Block
	for _, name := range slices.Sorted(maps.Keys(sensors)) {
		var b consensus.Block
		for _, r := range sensors[name] {
			b.Alternatives = append(b.Alternatives, consensus.Leaf{Key: name, Score: r.temp})
			b.Probs = append(b.Probs, r.prob)
		}
		blocks = append(blocks, b)
	}
	db, err := consensus.BID(blocks)
	if err != nil {
		log.Fatal(err)
	}

	const k = 3
	rd, err := consensus.RankDistribution(db, k)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Pr(sensor is among the %d hottest):\n", k)
	for _, key := range rd.Keys() {
		fmt.Printf("  %-11s %.3f\n", key, rd.PrTopK(key))
	}

	fmt.Printf("\nconsensus top-%d answers:\n", k)
	for _, m := range []consensus.Metric{
		consensus.MetricSymmetricDifference,
		consensus.MetricIntersection,
		consensus.MetricFootrule,
	} {
		tau, err := consensus.TopKMean(db, k, m)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  mean under %-22s %v\n", m.String()+":", tau)
	}
	median, err := consensus.TopKMedian(db, k)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  median (answer of a real world):  %v\n", median)

	fmt.Println("\nprior semantics for comparison:")
	if u, p, err := consensus.UTopK(db, k, 0); err == nil {
		fmt.Printf("  U-top-k (most probable answer):   %v (prob %.3f)\n", u, p)
	}
	if er, err := consensus.ExpectedRankTopK(db, k); err == nil {
		fmt.Printf("  expected rank:                    %v\n", er)
	}
	fmt.Printf("  expected score:                   %v\n", consensus.ExpectedScoreTopK(db, k))
	if pt, err := consensus.PTk(db, k, 0.5); err == nil {
		fmt.Printf("  PT-k (threshold 0.5):             %v\n", pt)
	}

	// Pairwise precedence: how sure are we the roof beats the server room?
	fmt.Printf("\nPr(s1-roof hotter than s3-server) = %.3f\n",
		consensus.PrecedenceProbability(db, "s1-roof", "s3-server"))

	// A Monte Carlo sanity check of the U-top-k answer.
	if tau, freq, err := consensus.UTopKSampled(db, k, 50000, rand.New(rand.NewSource(7))); err == nil {
		fmt.Printf("sampled most frequent answer:       %v (freq %.3f)\n", tau, freq)
	}
}
