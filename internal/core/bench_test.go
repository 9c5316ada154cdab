package core

import (
	"testing"

	"simjoin/internal/join"
	"simjoin/internal/pairs"
	"simjoin/internal/stats"
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
