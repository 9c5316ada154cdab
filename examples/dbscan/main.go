// Density clustering (DBSCAN) built on the similarity join: the ε-join
// gives every point's ε-neighborhood in one pass, after which DBSCAN is a
// straightforward traversal — core points (≥ minPts neighbors) connected
// through shared neighborhoods form clusters, the rest is noise. This is
// the data-mining workload the paper family cites as a join consumer.
package main

import (
	"fmt"
	"log"

	"simjoin"
)

const (
	numPoints = 6000
	dims      = 4
	epsilon   = 0.03
	minPts    = 5
)

func main() {
	ds, err := simjoin.Synthetic("clustered", numPoints, dims, 11)
	if err != nil {
		log.Fatal(err)
	}

	// One self-join replaces numPoints range queries.
	res, err := simjoin.SelfJoin(ds, simjoin.Options{Eps: epsilon, Workers: 4})
	if err != nil {
		log.Fatal(err)
	}

	// Adjacency lists from the pair stream.
	adj := make([][]int, ds.Len())
	for _, p := range res.Pairs {
		adj[p.I] = append(adj[p.I], p.J)
		adj[p.J] = append(adj[p.J], p.I)
	}

	labels := dbscan(adj)

	clusterSizes := map[int]int{}
	noise := 0
	for _, l := range labels {
		if l < 0 {
			noise++
		} else {
			clusterSizes[l]++
		}
	}
	fmt.Printf("%d points, ε=%g, minPts=%d\n", ds.Len(), float64(epsilon), minPts)
	fmt.Printf("join: %d neighbor pairs in %s\n", res.Stats.PairsEmitted, res.Stats.Elapsed)
	fmt.Printf("clusters: %d, noise points: %d\n", len(clusterSizes), noise)
	big := 0
	for _, size := range clusterSizes {
		if size >= 50 {
			big++
		}
	}
	fmt.Printf("clusters with ≥ 50 members: %d\n", big)
	if len(clusterSizes) == 0 {
		log.Fatal("no clusters found — ε or minPts miscalibrated for the workload")
	}
}

// dbscan labels every point with a cluster id (−1 = noise) given ε-adjacency.
func dbscan(adj [][]int) []int {
	const (
		unvisited = -2
		noise     = -1
	)
	labels := make([]int, len(adj))
	for i := range labels {
		labels[i] = unvisited
	}
	next := 0
	for i := range adj {
		if labels[i] != unvisited {
			continue
		}
		if len(adj[i]) < minPts-1 { // neighborhood includes the point itself
			labels[i] = noise
			continue
		}
		// Grow a new cluster from core point i.
		id := next
		next++
		labels[i] = id
		queue := append([]int(nil), adj[i]...)
		for len(queue) > 0 {
			q := queue[0]
			queue = queue[1:]
			if labels[q] == noise {
				labels[q] = id // border point adopted by the cluster
			}
			if labels[q] != unvisited {
				continue
			}
			labels[q] = id
			if len(adj[q]) >= minPts-1 { // q is core: expand through it
				queue = append(queue, adj[q]...)
			}
		}
	}
	return labels
}
