package simjoin

import "testing"

func TestExplainResolvesAlgorithm(t *testing.T) {
	ds, _ := Synthetic("clustered", 2000, 8, 7)

	// Default resolves to the library's primary engine, prediction filled.
	ex, err := Explain(ds, Options{Eps: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if ex.Algorithm != AlgorithmEKDB || ex.Requested != "" {
		t.Fatalf("default Explain = %+v, want ekdb", ex)
	}
	if ex.Plan.EstimatedPairs < 0 {
		t.Fatalf("default Explain did not price: %+v", ex.Plan)
	}

	// Auto resolves to whatever the planner picks.
	ex, err = Explain(ds, Options{Eps: 0.1, Algorithm: AlgorithmAuto})
	if err != nil {
		t.Fatal(err)
	}
	if ex.Algorithm == AlgorithmAuto || ex.Algorithm == "" {
		t.Fatalf("auto Explain left algorithm unresolved: %+v", ex)
	}
	if ex.Algorithm != ex.Plan.Algorithm {
		t.Fatalf("auto Explain engine %q != plan choice %q", ex.Algorithm, ex.Plan.Algorithm)
	}

	// An explicit algorithm is honored but still priced.
	ex, err = Explain(ds, Options{Eps: 0.1, Algorithm: AlgorithmGrid})
	if err != nil {
		t.Fatal(err)
	}
	if ex.Algorithm != AlgorithmGrid || ex.Requested != AlgorithmGrid {
		t.Fatalf("explicit Explain = %+v, want grid", ex)
	}
	if ex.Plan.EstimatedPairs < 0 {
		t.Fatalf("explicit Explain did not price: %+v", ex.Plan)
	}
}

func TestExplainMatchesExecution(t *testing.T) {
	ds, _ := Synthetic("clustered", 2000, 8, 7)
	ds.EnableSketch()
	ex, err := Explain(ds, Options{Eps: 0.1, Algorithm: AlgorithmAuto})
	if err != nil {
		t.Fatal(err)
	}
	var st JoinStats
	if _, err := SelfJoin(ds, Options{Eps: 0.1, Algorithm: AlgorithmAuto, Stats: &st}); err != nil {
		t.Fatal(err)
	}
	if st.Algorithm != ex.Algorithm {
		t.Fatalf("Explain said %q, execution ran %q", ex.Algorithm, st.Algorithm)
	}
	if st.EstimatedPairs != ex.Plan.EstimatedPairs {
		t.Fatalf("Explain predicted %d, execution predicted %d", ex.Plan.EstimatedPairs, st.EstimatedPairs)
	}
}

func TestExplainValidates(t *testing.T) {
	ds, _ := Synthetic("uniform", 100, 4, 1)
	if _, err := Explain(ds, Options{Eps: -1}); err == nil {
		t.Fatal("Explain accepted a negative eps")
	}
	if _, err := Explain(ds, Options{Eps: 0.1, Algorithm: "bogus"}); err == nil {
		t.Fatal("Explain accepted an unknown algorithm")
	}
	a, _ := Synthetic("uniform", 100, 4, 1)
	b, _ := Synthetic("uniform", 100, 5, 2)
	if _, err := ExplainJoin(a, b, Options{Eps: 0.1}); err == nil {
		t.Fatal("ExplainJoin accepted mismatched dims")
	}
}

func TestExplainJoinResolves(t *testing.T) {
	a, _ := Synthetic("clustered", 1500, 6, 3)
	b, _ := Synthetic("clustered", 1500, 6, 4)
	ex, err := ExplainJoin(a, b, Options{Eps: 0.1, Algorithm: AlgorithmAuto})
	if err != nil {
		t.Fatal(err)
	}
	if ex.Algorithm == AlgorithmAuto || ex.Algorithm == "" {
		t.Fatalf("ExplainJoin left algorithm unresolved: %+v", ex)
	}
	if ex.Plan.EstimatedPairs < 0 {
		t.Fatalf("ExplainJoin did not price: %+v", ex.Plan)
	}
}

// TestStreamingFillsEstimatedPairs covers JoinStats.EstimatedPairs on
// the streaming path: SelfJoinEach under AlgorithmAuto must report the
// same pre-run estimate a collecting run does, and count every pair.
func TestStreamingFillsEstimatedPairs(t *testing.T) {
	ds, _ := Synthetic("clustered", 2000, 8, 9)
	ds.EnableSketch()
	var streamed JoinStats
	var n int64
	if _, err := SelfJoinEach(ds, Options{Eps: 0.1, Algorithm: AlgorithmAuto, Stats: &streamed}, func(i, j int) {
		n++
	}); err != nil {
		t.Fatal(err)
	}
	if streamed.EstimatedPairs < 0 {
		t.Fatalf("streaming run did not fill EstimatedPairs: %+v", streamed)
	}
	if streamed.PairsEmitted != n {
		t.Fatalf("streaming PairsEmitted %d, callback saw %d", streamed.PairsEmitted, n)
	}
	var collected JoinStats
	if _, err := SelfJoin(ds, Options{Eps: 0.1, Algorithm: AlgorithmAuto, Stats: &collected}); err != nil {
		t.Fatal(err)
	}
	if streamed.EstimatedPairs != collected.EstimatedPairs {
		t.Fatalf("streaming estimate %d != collecting estimate %d", streamed.EstimatedPairs, collected.EstimatedPairs)
	}
}
