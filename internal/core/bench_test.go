package core

import (
	"fmt"
	"testing"

	"simjoin/internal/join"
	"simjoin/internal/pairs"
	"simjoin/internal/stats"
	"simjoin/internal/vec"
)

// The high-dimensional pair: the shape of the repo benchmark's
// join_highdim workload (ten blobs at d = 64, ε = 0.48) on this package's
// own fixture, build included, so a filtering change can be iterated with
//
//	go test -run '^$' -bench HighDim -cpuprofile cpu.out ./internal/core
//
// candidates/op is the filter's work counter; it repeats exactly.

func BenchmarkSelfJoinHighDim(b *testing.B) {
	ds := blobFixture(1, 3600, 64)
	var c stats.Counters
	opt := join.Options{Eps: 0.48, Counters: &c}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Reset()
		SelfJoin(ds, opt, &pairs.Counter{})
	}
	b.ReportMetric(float64(c.Snapshot().Candidates), "candidates/op")
}

func BenchmarkJoinHighDim(b *testing.B) {
	all := blobFixture(1, 4200, 64)
	a, bb := all.Head(2400), all.Subset(seq(2400, 4200))
	var c stats.Counters
	opt := join.Options{Eps: 0.48, Counters: &c}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Reset()
		Join(a, bb, opt, &pairs.Counter{})
	}
	b.ReportMetric(float64(c.Snapshot().Candidates), "candidates/op")
}

// The live engine's probe: one ε-range query against a standing raw-keyed
// tree (BuildWithBox, as live.Index builds it) at the shape of the repo
// benchmark's serve_ingest workload — ten blobs at d = 8, r = ε = 0.05 —
// each query a point of the same blobs that the tree does not hold.
// visits/op and cand/op are the probe's work counters; they repeat
// exactly.
func BenchmarkRangeQuery(b *testing.B) {
	const dims, eps, queries = 8, 0.05, 3000
	for _, n := range []int{20000, 100000} {
		b.Run(fmt.Sprintf("n=%dk", n/1000), func(b *testing.B) {
			all := blobFixture(1, n+queries, dims)
			ds := all.Head(n)
			tr := BuildWithBox(ds, eps, ds.Bounds(), Config{})
			var c stats.Counters
			hits := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.RangeQuery(all.Point(n+i%queries), vec.L2, eps, &c, func(int) { hits++ })
			}
			s := c.Snapshot()
			b.ReportMetric(float64(s.NodeVisits)/float64(b.N), "visits/op")
			b.ReportMetric(float64(s.Candidates)/float64(b.N), "cand/op")
		})
	}
}
