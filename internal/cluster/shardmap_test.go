package cluster

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"simjoin/internal/jointest"
)

func testURLs(k int) []string {
	urls := make([]string, k)
	for i := range urls {
		urls[i] = "http://worker" + string(rune('a'+i))
	}
	return urls
}

func TestPartitionCoversEveryPointOnce(t *testing.T) {
	pts := jointest.UniformPoints(500, 4, 1)
	sm, shardPts := Partition(pts, testURLs(4), 0.1)

	core := make(map[int]int)
	for s, sh := range sm.Shards {
		if len(sh.Global) != len(shardPts[s]) {
			t.Fatalf("shard %d: %d globals vs %d points", s, len(sh.Global), len(shardPts[s]))
		}
		seen := make(map[int]bool)
		for l, g := range sh.Global {
			if seen[g] {
				t.Fatalf("shard %d holds global %d twice", s, g)
			}
			seen[g] = true
			if !reflect.DeepEqual(shardPts[s][l], pts[g]) {
				t.Fatalf("shard %d local %d: wrong point for global %d", s, l, g)
			}
			if sm.ShardOf(pts[g][sm.Dim]) == s {
				core[g]++
			}
		}
	}
	for g := range pts {
		if core[g] != 1 {
			t.Fatalf("global %d is core on %d shards, want 1", g, core[g])
		}
	}
}

func TestPartitionReplicasStayWithinMargin(t *testing.T) {
	const margin = 0.07
	pts := jointest.UniformPoints(400, 3, 2)
	sm, _ := Partition(pts, testURLs(5), margin)
	for s, sh := range sm.Shards {
		for _, g := range sh.Global {
			x := pts[g][sm.Dim]
			home := sm.ShardOf(x)
			if home == s {
				continue
			}
			if home < s {
				t.Fatalf("global %d (home %d) replicated upward to shard %d", g, home, s)
			}
			// A downward replica must sit within margin above shard s's
			// upper cut.
			if x < sm.Cuts[s] || x >= sm.Cuts[s]+margin {
				t.Fatalf("global %d at %g replicated to shard %d outside strip [%g, %g)",
					g, x, s, sm.Cuts[s], sm.Cuts[s]+margin)
			}
		}
	}
	// Conversely, every point in a strip must be replicated there.
	for g, p := range pts {
		x := p[sm.Dim]
		home := sm.ShardOf(x)
		for s := home - 1; s >= 0; s-- {
			if x >= sm.Cuts[s]+margin {
				break
			}
			found := false
			for _, gg := range sm.Shards[s].Global {
				if gg == g {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("global %d at %g missing from shard %d's strip", g, x, s)
			}
		}
	}
}

func TestPartitionDeterministic(t *testing.T) {
	pts := jointest.UniformPoints(300, 6, 3)
	sm1, sp1 := Partition(pts, testURLs(3), 0.1)
	sm2, sp2 := Partition(pts, testURLs(3), 0.1)
	if !reflect.DeepEqual(sm1, sm2) || !reflect.DeepEqual(sp1, sp2) {
		t.Fatal("Partition is not deterministic")
	}
}

func TestPartitionSingleWorker(t *testing.T) {
	pts := jointest.UniformPoints(50, 2, 4)
	sm, shardPts := Partition(pts, testURLs(1), 0.1)
	if len(sm.Cuts) != 0 || len(sm.Shards) != 1 {
		t.Fatalf("single worker map = %+v", sm)
	}
	if len(shardPts[0]) != len(pts) {
		t.Fatalf("single worker holds %d points, want %d", len(shardPts[0]), len(pts))
	}
}

func TestPartitionRoutesOnWidestDim(t *testing.T) {
	// Dimension 1 spans [0, 10]; dimension 0 only [0, 1].
	pts := make([][]float64, 100)
	rng := rand.New(rand.NewSource(5))
	for i := range pts {
		pts[i] = []float64{rng.Float64(), rng.Float64() * 10}
	}
	sm, _ := Partition(pts, testURLs(4), 0.1)
	if sm.Dim != 1 {
		t.Fatalf("routing dim = %d, want 1", sm.Dim)
	}
}

func TestShardOfAndRouteInterval(t *testing.T) {
	sm := &ShardMap{Cuts: []float64{1, 2, 3}, Shards: make([]Shard, 4)}
	cases := []struct {
		x    float64
		want int
	}{{0.5, 0}, {1, 1}, {1.5, 1}, {2, 2}, {2.99, 2}, {3, 3}, {99, 3}}
	for _, tc := range cases {
		if got := sm.ShardOf(tc.x); got != tc.want {
			t.Errorf("ShardOf(%g) = %d, want %d", tc.x, got, tc.want)
		}
	}
	if got := sm.RouteInterval(0.9, 2.1); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Errorf("RouteInterval(0.9, 2.1) = %v", got)
	}
	if got := sm.RouteInterval(1.2, 1.8); !reflect.DeepEqual(got, []int{1}) {
		t.Errorf("RouteInterval(1.2, 1.8) = %v", got)
	}
}

func TestPartitionDegenerateProjection(t *testing.T) {
	// Every point identical: all cores land on the last shard and the
	// replica strips replicate everywhere; nothing is lost.
	pts := make([][]float64, 20)
	for i := range pts {
		pts[i] = []float64{0.5}
	}
	sm, _ := Partition(pts, testURLs(3), 0.1)
	seen := make(map[int]bool)
	for _, sh := range sm.Shards {
		for _, g := range sh.Global {
			seen[g] = true
		}
	}
	if len(seen) != len(pts) {
		t.Fatalf("degenerate partition dropped points: %d of %d present", len(seen), len(pts))
	}
}

func TestCoversRouteAndHome(t *testing.T) {
	sm := &ShardMap{Cuts: []float64{1, 2, 3}, Margin: 0.5, Shards: make([]Shard, 4)}
	for s := range sm.Shards {
		sm.Shards[s].Global = []int{s}
	}
	// Stored intervals: [−∞, 1.5), [1, 2.5), [2, 3.5), [3, +∞).
	cases := []struct {
		lo, hi float64
		route  []int
	}{
		{0.2, 1.4, []int{0}},        // inside shard 0's replica strip
		{0.2, 1.5, []int{0, 1}},     // the strip's top is open
		{1, 2.4, []int{1}},          // a covered interval may start on a cut
		{1.9, 2.6, []int{1, 2}},     // spans cut 2 past shard 1's strip
		{2.9, 99, []int{2, 3}},      // shard 3 has no top, but 2.9 < cut 3
		{3, math.Inf(1), []int{3}},  // the last shard covers any top
		{math.Inf(-1), 1, []int{0}}, // the first shard covers any bottom
	}
	for _, tc := range cases {
		if got := sm.route(tc.lo, tc.hi); !reflect.DeepEqual(got, tc.route) {
			t.Errorf("route(%g, %g) = %v, want %v", tc.lo, tc.hi, got, tc.route)
		}
	}
	// home: the most room on both sides of x among the shards storing it.
	for x, want := range map[float64]int{0.5: 0, 1.1: 0, 1.4: 1, 2.2: 1, 2.4: 2, 3.1: 2, 3.4: 3} {
		if got := sm.home(x); got != want {
			t.Errorf("home(%g) = %d, want %d", x, got, want)
		}
	}
	sm.Shards[1].Global = nil
	if got := sm.home(1.4); got != 0 {
		t.Errorf("home(1.4) with shard 1 empty = %d, want 0", got)
	}
	if got := sm.holding([]int{0, 1, 2}, 2); !reflect.DeepEqual(got, []int{0}) {
		t.Errorf("holding = %v, want [0]", got)
	}
}

// FuzzShardCoverage holds the coverage rule to the stored data: after an
// upload and appends, covers(s, x, x) holds exactly when the point at x
// is stored on shard s, and every shard's Global ascends strictly — the
// two facts point-query routing and its KNN tie-break stand on.
func FuzzShardCoverage(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(3), uint8(10), uint8(2), false)
	f.Add(int64(2), uint8(9), uint8(5), uint8(200), uint8(1), true)
	f.Add(int64(3), uint8(1), uint8(4), uint8(0), uint8(0), true)
	f.Fuzz(func(t *testing.T, seed int64, n, shards, marginQ, appends uint8, grid bool) {
		rng := rand.New(rand.NewSource(seed))
		batch := func(n int) [][]float64 {
			pts := make([][]float64, n)
			for i := range pts {
				pts[i] = make([]float64, 2)
				for d := range pts[i] {
					// On a 1/64 grid, cuts and points collide often.
					if grid {
						pts[i][d] = float64(rng.Intn(65)) / 64
					} else {
						pts[i][d] = rng.Float64()
					}
				}
			}
			return pts
		}
		all := batch(1 + int(n)%64)
		sm, _ := Partition(all, testURLs(1+int(shards)%5), float64(1+int(marginQ))/100)
		for a := 0; a < int(appends)%3; a++ {
			more := batch(1 + rng.Intn(20))
			sm, _ = sm.extend(more)
			all = append(all, more...)
		}
		if sm.Total != len(all) {
			t.Fatalf("map counts %d points, want %d", sm.Total, len(all))
		}
		for s, sh := range sm.Shards {
			stored := make(map[int]bool, len(sh.Global))
			for l, g := range sh.Global {
				if l > 0 && g <= sh.Global[l-1] {
					t.Fatalf("shard %d: Global %v does not ascend strictly", s, sh.Global)
				}
				stored[g] = true
			}
			for g, p := range all {
				if x := p[sm.Dim]; sm.covers(s, x, x) != stored[g] {
					t.Fatalf("shard %d (cuts %v, margin %g): covers(%g) = %v, stored = %v",
						s, sm.Cuts, sm.Margin, x, !stored[g], stored[g])
				}
			}
		}
	})
}
