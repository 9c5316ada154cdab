// Package simjoin is a high-dimensional similarity-join library: given one
// or two sets of d-dimensional points and a distance threshold ε, it
// reports every pair of points within ε under an Lp metric.
//
// The primary algorithm is the ε-kdB tree (AlgorithmEKDB), a main-memory
// index built for one specific ε that splits one dimension per level into
// stripes of width ε, confining every join candidate to adjacent stripes.
// The library also ships the full set of comparison algorithms its
// performance evaluation uses — nested loop, plane sweep, ε-grid, k-d tree,
// packed R-tree with synchronized traversal, and Z-order blocking — behind
// one uniform API, so callers can pick per workload and benchmarks can
// compare like for like.
//
// # Quick start
//
//	ds := simjoin.FromPoints(points)           // [][]float64, one row per point
//	res, err := simjoin.SelfJoin(ds, simjoin.Options{Eps: 0.1})
//	for _, p := range res.Pairs { ... }        // all pairs with dist ≤ 0.1
//	fmt.Println(res.Stats.DistComps)           // the run's report (JoinStats)
//
// Every entry point — SelfJoin, Join and the streaming SelfJoinEach and
// JoinEach — returns the same report: the algorithm that ran, its work
// counters (distance evaluations, candidates, index-node visits, pairs)
// and its build/probe/collect wall-time split.
//
// See the examples directory for complete programs: near-duplicate
// detection, time-series similarity via DFT features, and density
// clustering on top of the join.
package simjoin
