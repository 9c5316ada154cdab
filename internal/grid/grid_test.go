package grid

import (
	"testing"

	"simjoin/internal/brute"
	"simjoin/internal/dataset"
	"simjoin/internal/join"
	"simjoin/internal/jointest"
	"simjoin/internal/pairs"
	"simjoin/internal/stats"
	"simjoin/internal/synth"
	"simjoin/internal/vec"
)

// The oracle runs every join at one worker and at four.
func TestSelfJoinOracle(t *testing.T) {
	for _, w := range []int{1, 4} {
		jointest.CheckSelf(t, jointest.Workers(SelfJoin, w), 60, 201)
	}
}

func TestJoinOracle(t *testing.T) {
	for _, w := range []int{1, 4} {
		jointest.CheckJoin(t, jointest.JoinWorkers(Join, w), 60, 202)
	}
}

func TestSelfJoinAdversarial(t *testing.T) {
	for _, w := range []int{1, 4} {
		jointest.CheckSelfAdversarial(t, jointest.Workers(SelfJoin, w))
	}
}

func TestOffsetEnumeration(t *testing.T) {
	all := allOffsets(3)
	if len(all) != 27 {
		t.Fatalf("allOffsets(3) = %d entries, want 27", len(all))
	}
	pos := positiveOffsets(3)
	if len(pos) != 13 { // (27-1)/2
		t.Fatalf("positiveOffsets(3) = %d entries, want 13", len(pos))
	}
	// Positivity: first nonzero component is +1, and no duplicates.
	seen := map[string]bool{}
	for _, off := range pos {
		firstNonzero := int8(0)
		for _, v := range off {
			if v != 0 {
				firstNonzero = v
				break
			}
		}
		if firstNonzero != 1 {
			t.Errorf("offset %v is not lexicographically positive", off)
		}
		k := string([]byte{byte(off[0] + 1), byte(off[1] + 1), byte(off[2] + 1)})
		if seen[k] {
			t.Errorf("duplicate offset %v", off)
		}
		seen[k] = true
	}
	// Exactly one of δ, −δ present for every nonzero δ.
	for _, off := range all {
		zero := true
		for _, v := range off {
			if v != 0 {
				zero = false
			}
		}
		if zero {
			continue
		}
		k := string([]byte{byte(off[0] + 1), byte(off[1] + 1), byte(off[2] + 1)})
		nk := string([]byte{byte(-off[0] + 1), byte(-off[1] + 1), byte(-off[2] + 1)})
		if seen[k] == seen[nk] {
			t.Errorf("offset pair %v: exactly one of ±δ must be positive", off)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	coords := []int32{0, -1, 1 << 20, -(1 << 20), 2147480000}
	enc := encode(nil, coords)
	back := decode(string(enc), len(coords))
	for i := range coords {
		if back[i] != coords[i] {
			t.Fatalf("coord %d: %d → %d", i, coords[i], back[i])
		}
	}
}

// TestGridPrunes: on spread-out data the grid must inspect far fewer
// candidates than brute force.
func TestGridPrunes(t *testing.T) {
	ds := synth.Generate(synth.Config{N: 2000, Dims: 4, Seed: 5, Dist: synth.Uniform})
	opt := join.Options{Metric: vec.L2, Eps: 0.05}
	var cGrid, cBrute stats.Counters
	var sink pairs.Counter
	optG := opt
	optG.Counters = &cGrid
	SelfJoin(ds, optG, func() pairs.Sink { return &sink })
	optB := opt
	optB.Counters = &cBrute
	var sinkB pairs.Counter
	brute.SelfJoin(ds, optB, &sinkB)
	if sink.N() != sinkB.N() {
		t.Fatalf("result mismatch: %d vs %d", sink.N(), sinkB.N())
	}
	if cGrid.Snapshot().Candidates*10 > cBrute.Snapshot().Candidates {
		t.Errorf("grid candidates %d not ≪ brute %d", cGrid.Snapshot().Candidates, cBrute.Snapshot().Candidates)
	}
}

// TestParallelMatchesSerial: four workers report the pair set of one.
func TestParallelMatchesSerial(t *testing.T) {
	ds := synth.Generate(synth.Config{N: 3000, Dims: 5, Seed: 6, Dist: synth.GaussianClusters})
	opt := join.Options{Metric: vec.L2, Eps: 0.08}
	serial := pairs.NewSharded(true)
	SelfJoin(ds, opt, serial.Handle)
	opt.Workers = 4
	sh := pairs.NewSharded(true)
	SelfJoin(ds, opt, sh.Handle)
	if got, want := sh.Merged(), serial.Merged(); !pairs.Equal(got, want) {
		t.Errorf("parallel differs from serial: %s", pairs.Diff(got, want))
	}
}

func TestParallelSmallInputs(t *testing.T) {
	// Fewer cells than workers, empty and singleton datasets.
	for _, n := range []int{0, 1, 2, 5} {
		ds := dataset.New(3, n)
		for i := 0; i < n; i++ {
			ds.Append([]float64{0.5, 0.5, 0.5})
		}
		opt := join.Options{Metric: vec.L2, Eps: 0.1, Workers: 8}
		sh := pairs.NewSharded(true)
		SelfJoin(ds, opt, sh.Handle)
		want := int64(n * (n - 1) / 2)
		if got := int64(len(sh.Merged())); got != want {
			t.Errorf("n=%d: %d pairs, want %d", n, got, want)
		}
	}
}

func TestTinyEpsClampStaysCorrect(t *testing.T) {
	ds := dataset.FromPoints([][]float64{{0, 0}, {1e-12, 0}, {0.5, 0.5}})
	col := &pairs.Collector{Canonical: true}
	SelfJoin(ds, join.Options{Metric: vec.L2, Eps: 1e-11}, func() pairs.Sink { return col })
	if len(col.Pairs) != 1 || col.Pairs[0] != (pairs.Pair{I: 0, J: 1}) {
		t.Errorf("tiny-eps join = %v, want [(0,1)]", col.Pairs)
	}
}

func TestInvalidOptionsPanics(t *testing.T) {
	ds := dataset.FromPoints([][]float64{{0}})
	defer func() {
		if recover() == nil {
			t.Error("invalid options did not panic")
		}
	}()
	SelfJoin(ds, join.Options{}, func() pairs.Sink { return &pairs.Counter{} })
}
