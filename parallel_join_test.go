package simjoin

import (
	"math"
	"runtime"
	"strings"
	"testing"
)

// bruteJoinOracle runs a serial brute-force join as the oracle for the
// parallel paths, returning its (already sorted) pair set.
func bruteJoinOracle(t *testing.T, a, b *Dataset, opt Options) []Pair {
	t.Helper()
	opt.Algorithm = AlgorithmBrute
	opt.Workers = 1
	res, err := Join(a, b, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res.Pairs
}

func samePairs(t *testing.T, label string, got, want []Pair) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: pair %d = %v, want %v", label, i, got[i], want[i])
		}
	}
}

// TestJoinParallelOracle is the tentpole's acceptance oracle: for every
// algorithm with a parallel two-set engine, Join with Workers>1 must
// return exactly the serial brute-force pair set — across all three
// metrics and with unequal set sizes. CI runs this under -race.
func TestJoinParallelOracle(t *testing.T) {
	a, err := Synthetic("clustered", 700, 5, 11)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Synthetic("uniform", 300, 5, 12)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Metric{L2, L1, Linf} {
		want := bruteJoinOracle(t, a, b, Options{Eps: 0.2, Metric: m})
		if len(want) == 0 {
			t.Fatalf("%v: degenerate oracle, no pairs", m)
		}
		for _, algo := range []Algorithm{AlgorithmEKDB, AlgorithmGrid, AlgorithmKDTree} {
			res, err := Join(a, b, Options{Eps: 0.2, Metric: m, Algorithm: algo, Workers: 4})
			if err != nil {
				t.Fatalf("%v/%s: %v", m, algo, err)
			}
			samePairs(t, m.String()+"/"+string(algo), res.Pairs, want)
			if res.Stats.PairsEmitted != int64(len(want)) {
				t.Fatalf("%v/%s: Stats.Pairs = %d, want %d", m, algo, res.Stats.PairsEmitted, len(want))
			}
		}
	}
}

// TestJoinParallelCountOnly checks the shared-counter path (CollectPairs
// disabled) agrees with the collecting path under Workers>1.
func TestJoinParallelCountOnly(t *testing.T) {
	a, _ := Synthetic("clustered", 500, 4, 21)
	b, _ := Synthetic("uniform", 250, 4, 22)
	no := false
	for _, algo := range []Algorithm{AlgorithmEKDB, AlgorithmGrid, AlgorithmKDTree} {
		full, err := Join(a, b, Options{Eps: 0.15, Algorithm: algo, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		counted, err := Join(a, b, Options{Eps: 0.15, Algorithm: algo, Workers: 4, CollectPairs: &no})
		if err != nil {
			t.Fatal(err)
		}
		if counted.Stats.PairsEmitted != int64(len(full.Pairs)) {
			t.Fatalf("%s: counted %d, collected %d", algo, counted.Stats.PairsEmitted, len(full.Pairs))
		}
		if counted.Pairs != nil {
			t.Fatalf("%s: count-only run allocated %d pairs", algo, len(counted.Pairs))
		}
	}
}

// TestJoinDimsMismatch locks in the satellite fix: joining sets of
// different dimensionality must fail up front for every algorithm, not
// panic or silently misbehave.
func TestJoinDimsMismatch(t *testing.T) {
	a := FromPoints([][]float64{{0, 0, 0}, {1, 1, 1}})
	b := FromPoints([][]float64{{0, 0}, {1, 1}})
	for _, algo := range Algorithms() {
		_, err := Join(a, b, Options{Eps: 0.1, Algorithm: algo})
		if err == nil {
			t.Fatalf("%s: no error joining 3-dim with 2-dim", algo)
		}
		if !strings.Contains(err.Error(), "3-dim") || !strings.Contains(err.Error(), "2-dim") {
			t.Fatalf("%s: unhelpful error %q", algo, err)
		}
	}
	if _, err := JoinEach(a, b, Options{Eps: 0.1}, func(i, j int) {}); err == nil {
		t.Fatal("JoinEach: no error joining 3-dim with 2-dim")
	}
}

// TestOptionsRejectNonFiniteEps locks in the satellite fix: +Inf (which
// passes an Eps > 0 check) and NaN must both be rejected.
func TestOptionsRejectNonFiniteEps(t *testing.T) {
	ds := unitSquareCluster()
	for _, eps := range []float64{math.Inf(1), math.Inf(-1), math.NaN(), 0, -1} {
		if _, err := SelfJoin(ds, Options{Eps: eps}); err == nil {
			t.Errorf("SelfJoin accepted Eps = %g", eps)
		}
		if _, err := Join(ds, ds, Options{Eps: eps}); err == nil {
			t.Errorf("Join accepted Eps = %g", eps)
		}
		if _, err := SelfJoinEach(ds, Options{Eps: eps}, func(i, j int) {}); err == nil {
			t.Errorf("SelfJoinEach accepted Eps = %g", eps)
		}
	}
}

// TestSelfJoinEachMatchesCollect: the streaming API must deliver exactly
// the collected pair set, serially and through the parallel funnel, with
// the callback never invoked concurrently (detected by -race plus a
// plain counter).
func TestSelfJoinEachMatchesCollect(t *testing.T) {
	ds, err := Synthetic("clustered", 600, 6, 31)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []Algorithm{AlgorithmEKDB, AlgorithmGrid, AlgorithmKDTree, AlgorithmBrute} {
		res, err := SelfJoin(ds, Options{Eps: 0.1, Algorithm: algo})
		if err != nil {
			t.Fatal(err)
		}
		want := map[Pair]bool{}
		for _, p := range res.Pairs {
			want[p] = true
		}
		for _, workers := range []int{1, 4} {
			seen := map[Pair]bool{}
			var n int64 // plain int64: a data race here fails under -race
			st, err := SelfJoinEach(ds, Options{Eps: 0.1, Algorithm: algo, Workers: workers}, func(i, j int) {
				n++
				if i >= j {
					t.Errorf("non-canonical pair (%d,%d)", i, j)
				}
				p := Pair{I: i, J: j}
				if seen[p] {
					t.Errorf("duplicate pair %v", p)
				}
				seen[p] = true
			})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", algo, workers, err)
			}
			if len(seen) != len(want) || n != int64(len(want)) {
				t.Fatalf("%s workers=%d: streamed %d pairs, want %d", algo, workers, len(seen), len(want))
			}
			for p := range want {
				if !seen[p] {
					t.Fatalf("%s workers=%d: missing pair %v", algo, workers, p)
				}
			}
			if st.PairsEmitted != int64(len(want)) {
				t.Fatalf("%s workers=%d: Stats.Pairs = %d, want %d", algo, workers, st.PairsEmitted, len(want))
			}
		}
	}
}

// TestJoinEachMatchesJoin mirrors the self-join streaming test for the
// two-set API. The counting callback is also the flat-memory acceptance
// check: no Result is built and no pair slice is allocated by the API.
func TestJoinEachMatchesJoin(t *testing.T) {
	a, _ := Synthetic("clustered", 500, 5, 41)
	b, _ := Synthetic("uniform", 350, 5, 42)
	for _, algo := range []Algorithm{AlgorithmEKDB, AlgorithmGrid, AlgorithmKDTree, AlgorithmBrute} {
		res, err := Join(a, b, Options{Eps: 0.15, Algorithm: algo})
		if err != nil {
			t.Fatal(err)
		}
		want := map[Pair]bool{}
		for _, p := range res.Pairs {
			want[p] = true
		}
		for _, workers := range []int{1, 4} {
			seen := map[Pair]bool{}
			st, err := JoinEach(a, b, Options{Eps: 0.15, Algorithm: algo, Workers: workers}, func(i, j int) {
				seen[Pair{I: i, J: j}] = true
			})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", algo, workers, err)
			}
			if len(seen) != len(want) {
				t.Fatalf("%s workers=%d: streamed %d pairs, want %d", algo, workers, len(seen), len(want))
			}
			for p := range want {
				if !seen[p] {
					t.Fatalf("%s workers=%d: missing pair %v", algo, workers, p)
				}
			}
			if st.PairsEmitted != int64(len(want)) {
				t.Fatalf("%s workers=%d: Stats.Pairs = %d", algo, workers, st.PairsEmitted)
			}
		}
	}
}

// TestJoinEachCountingCallbackFlatMemory is the acceptance criterion's
// memory test in its sharpest observable form: a counting callback over a
// workload whose pair set would be large, asserting the count matches a
// count-only Join — the streaming path exists precisely so this never
// materializes a pair slice.
func TestJoinEachCountingCallbackFlatMemory(t *testing.T) {
	a, _ := Synthetic("uniform", 3000, 3, 51)
	b, _ := Synthetic("uniform", 3000, 3, 52)
	no := false
	want, err := Join(a, b, Options{Eps: 0.3, CollectPairs: &no, Workers: runtime.GOMAXPROCS(0)})
	if err != nil {
		t.Fatal(err)
	}
	if want.Stats.PairsEmitted < 10000 {
		t.Fatalf("degenerate workload: only %d pairs", want.Stats.PairsEmitted)
	}
	var n int64
	st, err := JoinEach(a, b, Options{Eps: 0.3, Workers: runtime.GOMAXPROCS(0)}, func(i, j int) { n++ })
	if err != nil {
		t.Fatal(err)
	}
	if n != want.Stats.PairsEmitted || st.PairsEmitted != n {
		t.Fatalf("streamed %d pairs (stats %d), want %d", n, st.PairsEmitted, want.Stats.PairsEmitted)
	}
}

// TestJoinParallelLargeMatchesSerial is the benchmark's correctness twin:
// on a larger two-set workload the parallel join must produce the exact
// sorted pair set of the serial one. (BenchmarkT3TwoSetJoin times the
// same configuration.)
func TestJoinParallelLargeMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("large workload")
	}
	// Two independently seeded clustered sets share no cluster centers and
	// barely intersect; interleaving one generation into two halves gives a
	// cross join with a rich pair set instead.
	full, err := Synthetic("clustered", 40000, 8, 61)
	if err != nil {
		t.Fatal(err)
	}
	var pa, pb [][]float64
	for i := 0; i < full.Len(); i++ {
		if i%2 == 0 {
			pa = append(pa, full.Point(i))
		} else {
			pb = append(pb, full.Point(i))
		}
	}
	a, b := FromPoints(pa), FromPoints(pb)
	serial, err := Join(a, b, Options{Eps: 0.05, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Join(a, b, Options{Eps: 0.05, Workers: runtime.GOMAXPROCS(0)})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Pairs) == 0 {
		t.Fatal("degenerate workload: no pairs")
	}
	samePairs(t, "parallel vs serial", parallel.Pairs, serial.Pairs)
}

// TestCountersIndependentOfWorkers: the worker count changes who does the
// work, never how much. For every engine that spreads its join over
// workers, self and two-set runs at 1, 2 and 8 workers report the same
// work counters and pairs.
func TestCountersIndependentOfWorkers(t *testing.T) {
	full, err := Synthetic("clustered", 6000, 8, 81)
	if err != nil {
		t.Fatal(err)
	}
	var pa, pb [][]float64
	for i := 0; i < full.Len(); i++ {
		if i%2 == 0 {
			pa = append(pa, full.Point(i))
		} else {
			pb = append(pb, full.Point(i))
		}
	}
	a, b := FromPoints(pa), FromPoints(pb)
	no := false
	for _, algo := range []Algorithm{AlgorithmEKDB, AlgorithmGrid, AlgorithmKDTree} {
		for _, kind := range []string{"self", "join"} {
			var first JoinStats
			for _, workers := range []int{1, 2, 8} {
				var js JoinStats
				opt := Options{Eps: 0.05, Algorithm: algo, Workers: workers, CollectPairs: &no, Stats: &js}
				if kind == "self" {
					_, err = SelfJoin(full, opt)
				} else {
					_, err = Join(a, b, opt)
				}
				if err != nil {
					t.Fatal(err)
				}
				if workers == 1 {
					if js.PairsEmitted == 0 {
						t.Fatalf("%s/%s: degenerate fixture, no pairs", algo, kind)
					}
					first = js
					continue
				}
				got := [4]int64{js.Candidates, js.DistComps, js.NodeVisits, js.PairsEmitted}
				want := [4]int64{first.Candidates, first.DistComps, first.NodeVisits, first.PairsEmitted}
				if got != want {
					t.Errorf("%s/%s workers=%d: candidates, dist comps, node visits, pairs = %v, at 1 worker %v", algo, kind, workers, got, want)
				}
			}
		}
	}
}
