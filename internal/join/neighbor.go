package join

// Neighbor is one k-nearest-neighbor result: a point index and its
// distance from the query.
type Neighbor struct {
	Index int
	Dist  float64
}

// worse orders neighbors by distance, then by index: of two points at one
// distance the higher index is the worse, so a tie at the k-th distance
// keeps the lower index whatever order the search pushed them in.
func worse(a, b Neighbor) bool {
	return a.Dist > b.Dist || (a.Dist == b.Dist && a.Index > b.Index)
}

// MaxHeap is a bounded max-heap of neighbors ordered by (distance,
// index), used by every KNN search to track the k best candidates found
// so far; the root is the current worst, so its distance is the search's
// pruning bound. The zero value is unusable; construct with NewMaxHeap.
type MaxHeap struct {
	k     int
	items []Neighbor
}

// NewMaxHeap returns a heap that retains the k smallest neighbors pushed
// into it, by distance and then index. It panics if k < 1.
func NewMaxHeap(k int) *MaxHeap {
	if k < 1 {
		panic("join: KNN heap needs k ≥ 1")
	}
	return &MaxHeap{k: k, items: make([]Neighbor, 0, k)}
}

// Len returns the number of retained neighbors.
func (h *MaxHeap) Len() int { return len(h.items) }

// Full reports whether k neighbors are retained.
func (h *MaxHeap) Full() bool { return len(h.items) == h.k }

// Bound returns the pruning distance: the k-th best distance once the
// heap is full, +Inf semantics expressed as ok=false otherwise. A search
// must still visit candidates at exactly the bound: one with a lower
// index than the current worst displaces it.
func (h *MaxHeap) Bound() (float64, bool) {
	if !h.Full() {
		return 0, false
	}
	return h.items[0].Dist, true
}

// Push offers a neighbor; it is retained iff fewer than k neighbors are
// held or it beats the current worst.
func (h *MaxHeap) Push(n Neighbor) {
	if len(h.items) < h.k {
		h.items = append(h.items, n)
		h.up(len(h.items) - 1)
		return
	}
	if !worse(h.items[0], n) {
		return
	}
	h.items[0] = n
	h.down(0)
}

// Sorted drains the heap, returning the retained neighbors ordered by
// ascending distance (ties by ascending index). The heap is empty
// afterwards.
func (h *MaxHeap) Sorted() []Neighbor {
	out := make([]Neighbor, len(h.items))
	for i := len(h.items) - 1; i >= 0; i-- {
		out[i] = h.items[0]
		last := len(h.items) - 1
		h.items[0] = h.items[last]
		h.items = h.items[:last]
		if last > 0 {
			h.down(0)
		}
	}
	return out
}

func (h *MaxHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !worse(h.items[i], h.items[parent]) {
			return
		}
		h.items[parent], h.items[i] = h.items[i], h.items[parent]
		i = parent
	}
}

func (h *MaxHeap) down(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && worse(h.items[l], h.items[largest]) {
			largest = l
		}
		if r < n && worse(h.items[r], h.items[largest]) {
			largest = r
		}
		if largest == i {
			return
		}
		h.items[i], h.items[largest] = h.items[largest], h.items[i]
		i = largest
	}
}
