package simjoin

import (
	"math"
	"path/filepath"
	"strings"
	"testing"
)

func unitSquareCluster() *Dataset {
	return FromPoints([][]float64{
		{0, 0}, {0.05, 0}, {0.5, 0.5}, {0.52, 0.5}, {0.9, 0.9},
	})
}

func TestSelfJoinAllAlgorithmsAgree(t *testing.T) {
	ds, err := Synthetic("clustered", 400, 6, 42)
	if err != nil {
		t.Fatal(err)
	}
	var want []Pair
	for _, algo := range Algorithms() {
		res, err := SelfJoin(ds, Options{Eps: 0.1, Algorithm: algo})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if want == nil {
			want = res.Pairs
			if len(want) == 0 {
				t.Fatal("degenerate test: no pairs")
			}
			continue
		}
		if len(res.Pairs) != len(want) {
			t.Fatalf("%s: %d pairs, want %d", algo, len(res.Pairs), len(want))
		}
		for i := range want {
			if res.Pairs[i] != want[i] {
				t.Fatalf("%s: pair %d = %v, want %v", algo, i, res.Pairs[i], want[i])
			}
		}
	}
}

func TestJoinAllAlgorithmsAgree(t *testing.T) {
	a, _ := Synthetic("uniform", 300, 5, 1)
	b, _ := Synthetic("clustered", 200, 5, 2)
	var want []Pair
	for _, algo := range Algorithms() {
		res, err := Join(a, b, Options{Eps: 0.15, Algorithm: algo})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if want == nil {
			want = res.Pairs
			if len(want) == 0 {
				t.Fatal("degenerate test: no pairs")
			}
			continue
		}
		if len(res.Pairs) != len(want) {
			t.Fatalf("%s: %d pairs, want %d", algo, len(res.Pairs), len(want))
		}
		for i := range want {
			if res.Pairs[i] != want[i] {
				t.Fatalf("%s: pair mismatch at %d", algo, i)
			}
		}
	}
}

func TestSelfJoinDefaultsAndStats(t *testing.T) {
	res, err := SelfJoin(unitSquareCluster(), Options{Eps: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	want := []Pair{{0, 1}, {2, 3}}
	if len(res.Pairs) != 2 || res.Pairs[0] != want[0] || res.Pairs[1] != want[1] {
		t.Fatalf("pairs = %v, want %v", res.Pairs, want)
	}
	if res.Stats.PairsEmitted != 2 {
		t.Errorf("Stats.Results = %d", res.Stats.PairsEmitted)
	}
	if res.Stats.Elapsed <= 0 {
		t.Error("Stats.Elapsed not positive")
	}
	for _, p := range res.Pairs {
		if p.I >= p.J {
			t.Errorf("self-join pair %v not ordered", p)
		}
	}
}

func TestOptionsValidation(t *testing.T) {
	ds := unitSquareCluster()
	for name, opt := range map[string]Options{
		"zero eps":   {},
		"nan eps":    {Eps: math.NaN()},
		"bad algo":   {Eps: 0.1, Algorithm: "quantum"},
		"bad metric": {Eps: 0.1, Metric: Metric(9)},
	} {
		if _, err := SelfJoin(ds, opt); err == nil {
			t.Errorf("%s accepted", name)
		}
		if _, err := Join(ds, ds, opt); err == nil {
			t.Errorf("join %s accepted", name)
		}
	}
}

func TestMetricsDiffer(t *testing.T) {
	// Points at L2 distance just over ε but L1 distance well over and Linf
	// under: the metric option must change the result.
	ds := FromPoints([][]float64{{0, 0}, {0.08, 0.08}})
	within := func(m Metric) bool {
		res, err := SelfJoin(ds, Options{Eps: 0.1, Metric: m})
		if err != nil {
			t.Fatal(err)
		}
		return len(res.Pairs) == 1
	}
	if !within(Linf) { // 0.08 ≤ 0.1
		t.Error("Linf should match")
	}
	if !within(L2) { // 0.113 > 0.1 → no... sqrt(2)*0.08 = 0.113
		t.Log("L2 0.113 > 0.1")
	}
	if within(L2) {
		t.Error("L2 should not match (0.113 > 0.1)")
	}
	if within(L1) { // 0.16 > 0.1
		t.Error("L1 should not match")
	}
}

func TestMetricStringAndParse(t *testing.T) {
	for _, m := range []Metric{L2, L1, Linf} {
		back, err := ParseMetric(m.String())
		if err != nil || back != m {
			t.Errorf("round trip %v failed", m)
		}
	}
	if _, err := ParseMetric("hamming"); err == nil {
		t.Error("ParseMetric(hamming) accepted")
	}
}

func TestCollectPairsDisabled(t *testing.T) {
	ds, _ := Synthetic("uniform", 200, 3, 3)
	off := false
	res, err := SelfJoin(ds, Options{Eps: 0.2, CollectPairs: &off})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 0 {
		t.Error("pairs collected despite CollectPairs=false")
	}
	if res.Stats.PairsEmitted == 0 {
		t.Error("Stats.Results empty; counting must still work")
	}
}

func TestParallelWorkersMatchSerial(t *testing.T) {
	ds, _ := Synthetic("uniform", 2000, 5, 4)
	for _, algo := range []Algorithm{AlgorithmEKDB, AlgorithmGrid, AlgorithmKDTree} {
		serial, err := SelfJoin(ds, Options{Eps: 0.08, Algorithm: algo})
		if err != nil {
			t.Fatal(err)
		}
		par, err := SelfJoin(ds, Options{Eps: 0.08, Algorithm: algo, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if len(serial.Pairs) != len(par.Pairs) {
			t.Fatalf("%s: parallel %d pairs, serial %d", algo, len(par.Pairs), len(serial.Pairs))
		}
		for i := range serial.Pairs {
			if serial.Pairs[i] != par.Pairs[i] {
				t.Fatalf("%s: pair %d differs", algo, i)
			}
		}
	}
}

func TestDatasetRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ds := unitSquareCluster()
	for _, name := range []string{"pts.csv", "pts.bin"} {
		p := filepath.Join(dir, name)
		if err := ds.Save(p); err != nil {
			t.Fatal(err)
		}
		back, err := Load(p)
		if err != nil {
			t.Fatal(err)
		}
		if back.Len() != ds.Len() || back.Dims() != ds.Dims() {
			t.Fatalf("%s: shape changed", name)
		}
		for i := 0; i < ds.Len(); i++ {
			for k := 0; k < ds.Dims(); k++ {
				if back.Point(i)[k] != ds.Point(i)[k] {
					t.Fatalf("%s: value changed", name)
				}
			}
		}
	}
}

func TestReadCSVPublic(t *testing.T) {
	ds, err := ReadCSV(strings.NewReader("1,2\n3,4\n"))
	if err != nil || ds.Len() != 2 {
		t.Fatalf("ReadCSV: %v, %d", err, ds.Len())
	}
	var sb strings.Builder
	if err := ds.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "3,4") {
		t.Error("WriteCSV lost data")
	}
}

func TestSyntheticValidation(t *testing.T) {
	if _, err := Synthetic("nope", 10, 2, 1); err == nil {
		t.Error("bad kind accepted")
	}
	if _, err := Synthetic("uniform", 0, 2, 1); err == nil {
		t.Error("zero n accepted")
	}
	if got := SyntheticKinds(); len(got) != 4 {
		t.Errorf("SyntheticKinds = %v", got)
	}
}

func TestTimeSeriesFacade(t *testing.T) {
	series := RandomWalks(20, 64, 7)
	feats := TimeSeriesFeatures(series, 4)
	if feats.Len() != 20 || feats.Dims() != 8 {
		t.Fatalf("features shape %dx%d", feats.Len(), feats.Dims())
	}
	// Lower-bounding: feature distance ≤ sequence distance for a few pairs.
	for i := 0; i < 5; i++ {
		fd := SeqDist(feats.Point(i), feats.Point(i+1))
		sd := SeqDist(series[i], series[i+1])
		if fd > sd+1e-9 {
			t.Fatalf("feature distance %g exceeds sequence distance %g", fd, sd)
		}
	}
}

func TestNeighborIndex(t *testing.T) {
	ds := unitSquareCluster()
	idx := NewNeighborIndex(ds)
	got := idx.Range([]float64{0, 0}, L2, 0.06)
	if len(got) != 2 { // itself and {0.05, 0}
		t.Fatalf("Range = %v", got)
	}
	if got2 := idx.Range([]float64{10, 10}, L2, 0.5); len(got2) != 0 {
		t.Errorf("far query hit %v", got2)
	}
}

func TestDefaultWorkersPositive(t *testing.T) {
	if DefaultWorkers() < 1 {
		t.Error("DefaultWorkers < 1")
	}
}

func TestSubsequenceFacade(t *testing.T) {
	series := make([]float64, 300)
	for i := range series {
		series[i] = float64(i % 17)
	}
	feats := SlidingFeatures(series, 32, 3)
	if len(feats) != 300-32+1 || len(feats[0]) != 6 {
		t.Fatalf("sliding features shape %dx%d", len(feats), len(feats[0]))
	}
	// A window matched against itself at eps 0 epsilon-ish must be found.
	query := append([]float64(nil), series[40:72]...)
	got := SubsequenceMatches(series, query, 3, 0.001)
	found := false
	for _, off := range got {
		if off == 40 {
			found = true
		}
	}
	if !found {
		t.Fatalf("self-match at offset 40 missing: %v", got)
	}
}

func TestCollectPairsDisabledJoin(t *testing.T) {
	a, _ := Synthetic("clustered", 500, 4, 12)
	b, _ := Synthetic("clustered", 500, 4, 12)
	off := false
	counted, err := Join(a, b, Options{Eps: 0.1, CollectPairs: &off})
	if err != nil {
		t.Fatal(err)
	}
	full, err := Join(a, b, Options{Eps: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if len(counted.Pairs) != 0 {
		t.Error("pairs collected despite CollectPairs=false")
	}
	if counted.Stats.PairsEmitted != full.Stats.PairsEmitted || counted.Stats.PairsEmitted == 0 {
		t.Errorf("counting-only Results = %d, full = %d", counted.Stats.PairsEmitted, full.Stats.PairsEmitted)
	}
	// Counting-only self-join parallel path too.
	par, err := SelfJoin(a, Options{Eps: 0.1, CollectPairs: &off, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	ser, _ := SelfJoin(a, Options{Eps: 0.1})
	if par.Stats.PairsEmitted != ser.Stats.PairsEmitted {
		t.Errorf("parallel counting = %d, want %d", par.Stats.PairsEmitted, ser.Stats.PairsEmitted)
	}
}
