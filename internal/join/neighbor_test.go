package join

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestMaxHeapPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("k=0 did not panic")
		}
	}()
	NewMaxHeap(0)
}

func TestMaxHeapBasics(t *testing.T) {
	h := NewMaxHeap(3)
	if _, ok := h.Bound(); ok {
		t.Error("empty heap reported a bound")
	}
	for i, d := range []float64{5, 1, 3} {
		h.Push(Neighbor{Index: i, Dist: d})
	}
	if !h.Full() {
		t.Error("heap not full after k pushes")
	}
	if b, ok := h.Bound(); !ok || b != 5 {
		t.Errorf("Bound = %g, %v; want 5, true", b, ok)
	}
	h.Push(Neighbor{Index: 3, Dist: 2}) // evicts 5
	if b, _ := h.Bound(); b != 3 {
		t.Errorf("Bound after eviction = %g, want 3", b)
	}
	h.Push(Neighbor{Index: 4, Dist: 9}) // ignored
	got := h.Sorted()
	want := []Neighbor{{Index: 1, Dist: 1}, {Index: 3, Dist: 2}, {Index: 2, Dist: 3}}
	if len(got) != 3 {
		t.Fatalf("Sorted len = %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Sorted[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestMaxHeapMatchesSort: the heap's retained set equals the k smallest of
// the pushed distances, for arbitrary inputs.
func TestMaxHeapMatchesSort(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(10)
		n := rng.Intn(100)
		dists := make([]float64, n)
		h := NewMaxHeap(k)
		for i := range dists {
			dists[i] = rng.Float64()
			h.Push(Neighbor{Index: i, Dist: dists[i]})
		}
		sorted := append([]float64(nil), dists...)
		sort.Float64s(sorted)
		got := h.Sorted()
		wantLen := k
		if n < k {
			wantLen = n
		}
		if len(got) != wantLen {
			return false
		}
		for i, nb := range got {
			if nb.Dist != sorted[i] {
				return false
			}
			if i > 0 && got[i-1].Dist > nb.Dist {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMaxHeapTieDeterminism(t *testing.T) {
	h := NewMaxHeap(3)
	h.Push(Neighbor{Index: 9, Dist: 1})
	h.Push(Neighbor{Index: 2, Dist: 1})
	h.Push(Neighbor{Index: 5, Dist: 1})
	got := h.Sorted()
	if got[0].Index != 2 || got[1].Index != 5 || got[2].Index != 9 {
		t.Errorf("ties not index-ordered: %v", got)
	}
}

// TestMaxHeapTieAtBoundKeepsLowerIndex: which of two equally distant
// candidates survives a full heap does not depend on push order.
func TestMaxHeapTieAtBoundKeepsLowerIndex(t *testing.T) {
	for _, order := range [][]int{{9, 2, 5}, {2, 9, 5}, {5, 9, 2}} {
		h := NewMaxHeap(2)
		h.Push(Neighbor{Index: 7, Dist: 0.5})
		for _, i := range order {
			h.Push(Neighbor{Index: i, Dist: 1})
		}
		got := h.Sorted()
		if got[0].Index != 7 || got[1].Index != 2 {
			t.Errorf("push order %v kept %v, want indexes 7 then 2", order, got)
		}
	}
}

func TestMaxHeapLen(t *testing.T) {
	h := NewMaxHeap(2)
	if h.Len() != 0 {
		t.Errorf("Len = %d", h.Len())
	}
	h.Push(Neighbor{Index: 1, Dist: 1})
	if h.Len() != 1 {
		t.Errorf("Len = %d", h.Len())
	}
}
