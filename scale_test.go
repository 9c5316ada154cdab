package simjoin

import "testing"

// TestLargeScaleAgreement cross-validates the three fastest algorithms at
// a scale where the brute-force oracle is no longer practical: if ε-kdB,
// grid and R+-tree all report identical pair sets on 200k points, a
// correctness defect would need the same blind spot in three unrelated
// candidate-generation schemes. Skipped under -short.
func TestLargeScaleAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("large-scale agreement test skipped in -short mode")
	}
	ds, err := Synthetic("clustered", 200000, 8, 0xBEEF)
	if err != nil {
		t.Fatal(err)
	}
	off := false
	var want int64 = -1
	for _, algo := range []Algorithm{AlgorithmEKDB, AlgorithmGrid, AlgorithmRPlus} {
		res, err := SelfJoin(ds, Options{Eps: 0.03, Algorithm: algo, CollectPairs: &off})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		t.Logf("%s: %d pairs in %s (%d candidates)", algo, res.Stats.PairsEmitted, res.Stats.Elapsed, res.Stats.Candidates)
		if want == -1 {
			want = res.Stats.PairsEmitted
			continue
		}
		if res.Stats.PairsEmitted != want {
			t.Fatalf("%s: %d pairs, others found %d", algo, res.Stats.PairsEmitted, want)
		}
	}
	if want <= 0 {
		t.Fatal("degenerate workload: no pairs at this scale")
	}
}
