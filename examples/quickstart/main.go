// Quickstart: generate a small clustered dataset, find every pair of points
// within ε, and compare two algorithms on the same workload.
package main

import (
	"fmt"
	"log"

	"simjoin"
)

func main() {
	// 5,000 points in 8 dimensions, drawn from Gaussian clusters — the kind
	// of feature-vector data similarity joins are built for.
	ds, err := simjoin.Synthetic("clustered", 5000, 8, 42)
	if err != nil {
		log.Fatal(err)
	}

	// The default algorithm is the ε-kdB tree.
	res, err := simjoin.SelfJoin(ds, simjoin.Options{Eps: 0.05})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ε-kdB tree: %d similar pairs (inspected %d candidates) in %s\n",
		res.Stats.PairsEmitted, res.Stats.Candidates, res.Stats.Elapsed)

	// Print a few matches.
	for i, p := range res.Pairs {
		if i == 5 {
			fmt.Println("  …")
			break
		}
		fmt.Printf("  points %d and %d are within 0.05\n", p.I, p.J)
	}

	// Any other algorithm answers identically — only the work differs.
	naive, err := simjoin.SelfJoin(ds, simjoin.Options{Eps: 0.05, Algorithm: simjoin.AlgorithmBrute})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("nested loop: %d pairs (inspected %d candidates) in %s\n",
		naive.Stats.PairsEmitted, naive.Stats.Candidates, naive.Stats.Elapsed)

	if naive.Stats.PairsEmitted != res.Stats.PairsEmitted {
		log.Fatal("algorithms disagree — this is a bug")
	}
	fmt.Printf("speed ratio: the tree inspected %.1f%% of the naive candidates\n",
		100*float64(res.Stats.Candidates)/float64(naive.Stats.Candidates))
}
