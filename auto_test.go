package simjoin

import "testing"

// TestAutoAlgorithm: "auto" must pick a working algorithm for every
// workload regime and give the exact answer each time.
func TestAutoAlgorithm(t *testing.T) {
	for name, make := range map[string]func() *Dataset{
		"tiny":        func() *Dataset { ds, _ := Synthetic("uniform", 50, 4, 1); return ds },
		"one-dim":     func() *Dataset { ds, _ := Synthetic("uniform", 3000, 1, 2); return ds },
		"typical":     func() *Dataset { ds, _ := Synthetic("clustered", 3000, 8, 3); return ds },
		"unselective": func() *Dataset { ds, _ := Synthetic("uniform", 3000, 2, 4); return ds },
	} {
		ds := make()
		eps := 0.1
		if name == "unselective" {
			eps = 0.8
		}
		auto, err := SelfJoin(ds, Options{Eps: eps, Algorithm: AlgorithmAuto})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		exact, err := SelfJoin(ds, Options{Eps: eps, Algorithm: AlgorithmBrute})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(auto.Pairs) != len(exact.Pairs) {
			t.Fatalf("%s: auto %d pairs, exact %d", name, len(auto.Pairs), len(exact.Pairs))
		}
		for i := range exact.Pairs {
			if auto.Pairs[i] != exact.Pairs[i] {
				t.Fatalf("%s: pair %d differs", name, i)
			}
		}
	}
}

func TestAutoOnEmptyDataset(t *testing.T) {
	res, err := SelfJoin(NewDataset(3), Options{Eps: 0.1, Algorithm: AlgorithmAuto})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 0 {
		t.Error("empty dataset produced pairs")
	}
}

// TestAutoWithSketchRunsNoSampleJoins: on a sketched dataset,
// AlgorithmAuto must plan from the resident sketch — no sample drawn —
// and still produce the exact result. The attached sketch summarises a
// different point set, so only it can have produced the recorded
// prediction.
func TestAutoWithSketchRunsNoSampleJoins(t *testing.T) {
	ds, _ := Synthetic("clustered", 3000, 8, 3)
	sk := ds.EnableSketch()
	if sk == nil || ds.Sketch() != sk {
		t.Fatal("EnableSketch did not attach")
	}
	other, _ := Synthetic("clustered", 2000, 8, 4)
	sk = SketchOf(other)
	ds.AttachSketch(sk)
	var st JoinStats
	auto, err := SelfJoin(ds, Options{Eps: 0.1, Algorithm: AlgorithmAuto, Stats: &st})
	if err != nil {
		t.Fatal(err)
	}
	n := float64(ds.Len())
	if want := int64(sk.SelfSelectivity(L2, 0.1)*n*(n-1)/2 + 0.5); st.EstimatedPairs != want {
		t.Errorf("EstimatedPairs = %d, want the attached sketch's %d", st.EstimatedPairs, want)
	}
	exact, err := SelfJoin(ds, Options{Eps: 0.1, Algorithm: AlgorithmBrute})
	if err != nil {
		t.Fatal(err)
	}
	if len(auto.Pairs) != len(exact.Pairs) {
		t.Fatalf("auto %d pairs, exact %d", len(auto.Pairs), len(exact.Pairs))
	}
}

// TestAutoSketchAppendKeepsTracking: appends after EnableSketch must
// flow into the sketch so its population count follows the data.
func TestAutoSketchAppendKeepsTracking(t *testing.T) {
	ds, _ := Synthetic("uniform", 500, 3, 9)
	sk := ds.EnableSketch()
	ds.Append([]float64{0.5, 0.5, 0.5})
	if sk.Points() != 501 {
		t.Errorf("sketch saw %d points, want 501", sk.Points())
	}
}

// TestAutoTwoSetJoinSketched: the two-set planner must also read the
// resident sketches when both sides carry one; as above, they summarise
// other point sets, so the prediction names its source.
func TestAutoTwoSetJoinSketched(t *testing.T) {
	a, _ := Synthetic("clustered", 2000, 6, 5)
	b, _ := Synthetic("clustered", 2000, 6, 5)
	oa, _ := Synthetic("clustered", 1500, 6, 6)
	ob, _ := Synthetic("clustered", 1500, 6, 6)
	ska, skb := SketchOf(oa), SketchOf(ob)
	a.AttachSketch(ska)
	b.AttachSketch(skb)
	var st JoinStats
	auto, err := Join(a, b, Options{Eps: 0.05, Algorithm: AlgorithmAuto, Stats: &st})
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(ska.JoinSelectivity(skb, L2, 0.05)*2000*2000 + 0.5); st.EstimatedPairs != want {
		t.Errorf("EstimatedPairs = %d, want the attached sketches' %d", st.EstimatedPairs, want)
	}
	exact, err := Join(a, b, Options{Eps: 0.05, Algorithm: AlgorithmBrute})
	if err != nil {
		t.Fatal(err)
	}
	if len(auto.Pairs) != len(exact.Pairs) {
		t.Fatalf("auto %d pairs, exact %d", len(auto.Pairs), len(exact.Pairs))
	}
}

func TestAutoTwoSetJoin(t *testing.T) {
	a, _ := Synthetic("clustered", 2000, 6, 5)
	b, _ := Synthetic("clustered", 2000, 6, 5) // same seed: many cross pairs
	auto, err := Join(a, b, Options{Eps: 0.05, Algorithm: AlgorithmAuto})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := Join(a, b, Options{Eps: 0.05, Algorithm: AlgorithmBrute})
	if err != nil {
		t.Fatal(err)
	}
	if len(auto.Pairs) != len(exact.Pairs) {
		t.Fatalf("auto %d pairs, exact %d", len(auto.Pairs), len(exact.Pairs))
	}
}
