package simjoin

import (
	"math"
	"testing"
)

func TestIndexBuildOnceQueryMany(t *testing.T) {
	ds, _ := Synthetic("clustered", 3000, 6, 30)
	idx, err := NewIndex(ds, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	for _, eps := range []float64{0.02, 0.08, 0.2} {
		got, err := idx.SelfJoin(Options{Eps: eps})
		if err != nil {
			t.Fatal(err)
		}
		want, err := SelfJoin(ds, Options{Eps: eps, Algorithm: AlgorithmBrute})
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Pairs) != len(want.Pairs) {
			t.Fatalf("eps=%g: %d pairs, want %d", eps, len(got.Pairs), len(want.Pairs))
		}
		for i := range want.Pairs {
			if got.Pairs[i] != want.Pairs[i] {
				t.Fatalf("eps=%g: pair %d differs", eps, i)
			}
		}
	}
	// Parallel path agrees too.
	serial, _ := idx.SelfJoin(Options{Eps: 0.08})
	par, err := idx.SelfJoin(Options{Eps: 0.08, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Pairs) != len(par.Pairs) {
		t.Fatalf("parallel %d pairs, serial %d", len(par.Pairs), len(serial.Pairs))
	}
}

func TestIndexErrors(t *testing.T) {
	ds, _ := Synthetic("uniform", 100, 3, 31)
	if _, err := NewIndex(ds, 0); err == nil {
		t.Error("zero eps accepted")
	}
	idx, _ := NewIndex(ds, 0.1)
	if _, err := idx.SelfJoin(Options{Eps: 0.2}); err == nil {
		t.Error("query eps above index eps accepted")
	}
	if _, err := idx.SelfJoin(Options{}); err == nil {
		t.Error("zero query eps accepted")
	}
	if _, err := idx.Range([]float64{0, 0}, L2, 0.05); err == nil {
		t.Error("dim mismatch accepted")
	}
	if _, err := idx.Range([]float64{0, 0, 0}, L2, 0.5); err == nil {
		t.Error("radius above eps accepted")
	}
	if _, err := idx.Insert([]float64{1}); err == nil {
		t.Error("dim-mismatched insert accepted")
	}
}

func TestIndexRange(t *testing.T) {
	ds := FromPoints([][]float64{{0, 0}, {0.05, 0}, {0.5, 0.5}})
	idx, _ := NewIndex(ds, 0.1)
	got, err := idx.Range([]float64{0, 0}, L2, 0.06)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("Range = %v", got)
	}
}

func TestIndexInsertDelete(t *testing.T) {
	ds := FromPoints([][]float64{{0.5, 0.5}})
	idx, err := NewIndex(ds, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	i, err := idx.Insert([]float64{0.52, 0.5})
	if err != nil || i != 1 {
		t.Fatalf("Insert = %d, %v", i, err)
	}
	res, _ := idx.SelfJoin(Options{Eps: 0.1})
	if len(res.Pairs) != 1 || res.Pairs[0] != (Pair{I: 0, J: 1}) {
		t.Fatalf("post-insert join = %v", res.Pairs)
	}
	if !idx.Delete(0) {
		t.Fatal("Delete(0) failed")
	}
	if idx.Delete(0) {
		t.Fatal("double delete succeeded")
	}
	res, _ = idx.SelfJoin(Options{Eps: 0.1})
	if len(res.Pairs) != 0 {
		t.Fatalf("post-delete join = %v", res.Pairs)
	}
	if idx.Len() != 2 || idx.Eps() != 0.1 {
		t.Errorf("accessors: Len=%d Eps=%g", idx.Len(), idx.Eps())
	}
}

func TestIndexInsertOutsideOriginalBounds(t *testing.T) {
	ds := FromPoints([][]float64{{0, 0}, {1, 1}})
	idx, _ := NewIndex(ds, 0.1)
	// Points outside the original frame must still join correctly (edge
	// stripe clamping).
	a, _ := idx.Insert([]float64{5, 5})
	b, _ := idx.Insert([]float64{5.05, 5})
	res, err := idx.SelfJoin(Options{Eps: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 1 || res.Pairs[0] != (Pair{I: a, J: b}) {
		t.Fatalf("out-of-frame join = %v, want [(2,3)]", res.Pairs)
	}
	d := math.Hypot(0.05, 0)
	if d > 0.1 == false && len(res.Pairs) == 0 {
		t.Fatal("unreachable")
	}
}
