package core

import (
	"math/rand"
	"testing"

	"simjoin/internal/brute"
	"simjoin/internal/join"
	"simjoin/internal/pairs"
	"simjoin/internal/synth"
	"simjoin/internal/vec"
)

func TestJoinTreesParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		na, nb := 200+rng.Intn(3000), 200+rng.Intn(3000)
		d := 2 + rng.Intn(6)
		eps := 0.05 + rng.Float64()*0.1
		a := synth.Generate(synth.Config{N: na, Dims: d, Seed: rng.Int63(), Dist: synth.GaussianClusters})
		b := synth.Generate(synth.Config{N: nb, Dims: d, Seed: rng.Int63(), Dist: synth.GaussianClusters})
		box := a.Bounds()
		box.ExtendBox(b.Bounds())
		ta := BuildWithBox(a, eps, box, Config{})
		tb := BuildWithBox(b, eps, box, Config{})
		opt := join.Options{Metric: vec.L2, Eps: eps, Workers: 4}

		serial := &pairs.Collector{}
		JoinTrees(ta, tb, opt, serial)
		sh := pairs.NewSharded(false)
		JoinTreesParallel(ta, tb, opt, sh.Handle)
		if !pairs.Equal(sh.Merged(), serial.Sorted()) {
			t.Fatalf("trial %d: parallel two-set join differs: %s", trial, pairs.Diff(sh.Merged(), serial.Pairs))
		}
	}
}

func TestJoinTreesParallelLeafRoot(t *testing.T) {
	// One side so small its root is a leaf — must fall back to serial and
	// stay correct.
	a := synth.Generate(synth.Config{N: 3, Dims: 3, Seed: 1, Dist: synth.Uniform})
	b := synth.Generate(synth.Config{N: 2000, Dims: 3, Seed: 2, Dist: synth.Uniform})
	box := a.Bounds()
	box.ExtendBox(b.Bounds())
	ta := BuildWithBox(a, 0.1, box, Config{})
	tb := BuildWithBox(b, 0.1, box, Config{})
	opt := join.Options{Metric: vec.L2, Eps: 0.1, Workers: 4}
	want := &pairs.Collector{}
	brute.Join(a, b, opt, want)
	sh := pairs.NewSharded(false)
	JoinTreesParallel(ta, tb, opt, sh.Handle)
	if !pairs.Equal(sh.Merged(), want.Sorted()) {
		t.Errorf("leaf-root parallel join wrong: %s", pairs.Diff(sh.Merged(), want.Pairs))
	}
}
