package core

import (
	"testing"

	"simjoin/internal/dataset"
	"simjoin/internal/join"
	"simjoin/internal/jointest"
	"simjoin/internal/pairs"
	"simjoin/internal/stats"
	"simjoin/internal/synth"
	"simjoin/internal/vec"
)

func TestExternalSelfJoinOracle(t *testing.T) {
	fn := func(ds *dataset.Dataset, opt join.Options, sink pairs.Sink) {
		ExternalSelfJoin(ds, opt, ExternalConfig{PageBytes: 256, PoolPages: 4}, sink)
	}
	jointest.CheckSelf(t, fn, 40, 901)
}

func TestExternalBNLOracle(t *testing.T) {
	fn := func(ds *dataset.Dataset, opt join.Options, sink pairs.Sink) {
		ExternalBlockNestedLoopSelfJoin(ds, opt, ExternalConfig{PageBytes: 256, PoolPages: 4}, sink)
	}
	jointest.CheckSelf(t, fn, 40, 902)
}

func TestExternalAdversarial(t *testing.T) {
	fn := func(ds *dataset.Dataset, opt join.Options, sink pairs.Sink) {
		ExternalSelfJoin(ds, opt, ExternalConfig{PageBytes: 128, PoolPages: 2}, sink)
	}
	jointest.CheckSelfAdversarial(t, fn)
}

func TestExternalTinyPool(t *testing.T) {
	// A one-page pool thrashes but must stay correct.
	for _, fn := range []jointest.SelfJoinFunc{
		func(ds *dataset.Dataset, opt join.Options, sink pairs.Sink) {
			ExternalSelfJoin(ds, opt, ExternalConfig{PageBytes: 128, PoolPages: 1}, sink)
		},
		func(ds *dataset.Dataset, opt join.Options, sink pairs.Sink) {
			ExternalBlockNestedLoopSelfJoin(ds, opt, ExternalConfig{PageBytes: 128, PoolPages: 1}, sink)
		},
	} {
		jointest.CheckSelf(t, fn, 10, 903)
	}
}

func TestExternalPoolPagesValidated(t *testing.T) {
	ds := dataset.FromPoints([][]float64{{0}, {1}})
	defer func() {
		if recover() == nil {
			t.Error("PoolPages=0 did not panic")
		}
	}()
	ExternalSelfJoin(ds, join.Options{Metric: vec.L2, Eps: 0.5}, ExternalConfig{}, &pairs.Counter{})
}

// TestExternalIOShape is the heart of experiment F7: with a pool that holds
// a few partitions, the partitioned ε-kdB join must perform near-linear
// I/O, while the block-nested-loop join's reads grow roughly quadratically
// in the number of blocks.
func TestExternalIOShape(t *testing.T) {
	ds := synth.Generate(synth.Config{N: 20000, Dims: 4, Seed: 1, Dist: synth.Uniform})
	opt := join.Options{Metric: vec.L2, Eps: 0.05}

	run := func(fn func(*dataset.Dataset, join.Options, ExternalConfig, pairs.Sink), pool int) (reads, writes, results int64) {
		var c stats.Counters
		o := opt
		o.Counters = &c
		var sink pairs.Counter
		fn(ds, o, ExternalConfig{PageBytes: 4096, PoolPages: pool}, &sink)
		s := c.Snapshot()
		return s.PageReads, s.PageWrites, sink.N()
	}

	ekReads, ekWrites, ekResults := run(ExternalSelfJoin, 32)
	bnReads, _, bnResults := run(ExternalBlockNestedLoopSelfJoin, 32)
	if ekResults != bnResults {
		t.Fatalf("result mismatch: %d vs %d", ekResults, bnResults)
	}
	if ekResults == 0 {
		t.Fatal("no results; experiment degenerate")
	}
	// ε-kdB external: close to 2 read passes over its written pages.
	if ekReads > 4*ekWrites {
		t.Errorf("external ε-kdB read %d pages for %d written — not near-linear", ekReads, ekWrites)
	}
	// BNL with a small pool must read much more than the ε-kdB join.
	if bnReads < 3*ekReads {
		t.Errorf("BNL reads %d not ≫ ε-kdB reads %d", bnReads, ekReads)
	}
}

// TestExternalIODropsWithPool: giving the pool more pages must not increase
// reads, and a pool big enough for everything drops re-reads to ~one scan.
func TestExternalIODropsWithPool(t *testing.T) {
	ds := synth.Generate(synth.Config{N: 8000, Dims: 4, Seed: 2, Dist: synth.Uniform})
	opt := join.Options{Metric: vec.L2, Eps: 0.05}
	var prev int64 = -1
	for _, pool := range []int{2, 8, 64, 4096} {
		var c stats.Counters
		o := opt
		o.Counters = &c
		var sink pairs.Counter
		ExternalSelfJoin(ds, o, ExternalConfig{PageBytes: 1024, PoolPages: pool}, &sink)
		reads := c.Snapshot().PageReads
		if prev >= 0 && reads > prev {
			t.Errorf("pool %d: reads %d exceed smaller pool's %d", pool, reads, prev)
		}
		prev = reads
	}
}

func TestExternalEmptyAndSmall(t *testing.T) {
	var sink pairs.Counter
	cfg := ExternalConfig{PageBytes: 128, PoolPages: 2}
	ExternalSelfJoin(dataset.New(3, 0), join.Options{Metric: vec.L2, Eps: 0.1}, cfg, &sink)
	ExternalSelfJoin(dataset.FromPoints([][]float64{{1, 2, 3}}), join.Options{Metric: vec.L2, Eps: 0.1}, cfg, &sink)
	ExternalBlockNestedLoopSelfJoin(dataset.New(3, 0), join.Options{Metric: vec.L2, Eps: 0.1}, cfg, &sink)
	if sink.N() != 0 {
		t.Error("degenerate external joins produced pairs")
	}
}
