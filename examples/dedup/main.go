// Near-duplicate detection over feature vectors — e.g. color histograms of
// an image catalog. Items whose feature vectors sit within ε of each other
// are duplicate candidates; a union-find over the join output groups them
// into duplicate clusters.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"simjoin"
)

const (
	catalogSize = 8000
	histogramD  = 16 // a 16-bucket color histogram per "image"
	epsilon     = 0.02
)

func main() {
	ds, planted := buildCatalog()

	res, err := simjoin.SelfJoin(ds, simjoin.Options{
		Eps:     epsilon,
		Metric:  simjoin.L1, // histogram similarity is conventionally L1
		Workers: 4,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Group matches into clusters with union-find.
	uf := newUnionFind(ds.Len())
	for _, p := range res.Pairs {
		uf.union(p.I, p.J)
	}
	clusters := map[int][]int{}
	for i := 0; i < ds.Len(); i++ {
		r := uf.find(i)
		if uf.size[r] > 1 {
			clusters[r] = append(clusters[r], i)
		}
	}

	fmt.Printf("catalog of %d histograms (%d dims), ε=%g under L1\n", ds.Len(), histogramD, epsilon)
	fmt.Printf("join found %d near-duplicate pairs in %s (%d candidates inspected)\n",
		res.Stats.PairsEmitted, res.Stats.Elapsed, res.Stats.Candidates)
	fmt.Printf("duplicate groups: %d (largest shown first)\n", len(clusters))

	shown := 0
	for _, members := range clusters {
		if shown == 3 {
			fmt.Println("  …")
			break
		}
		fmt.Printf("  group of %d: %v\n", len(members), members)
		shown++
	}

	if len(clusters) < planted {
		log.Fatalf("only %d groups found, %d planted — detection failed", len(clusters), planted)
	}
	fmt.Printf("all %d planted duplicate groups detected ✓\n", planted)
}

// buildCatalog synthesizes random histograms plus a handful of planted
// duplicate groups (slightly perturbed copies).
func buildCatalog() (*simjoin.Dataset, int) {
	rng := rand.New(rand.NewSource(99))
	ds := simjoin.NewDataset(histogramD)
	hist := make([]float64, histogramD)
	emit := func() {
		// Normalize to a unit-mass histogram.
		var sum float64
		for _, v := range hist {
			sum += v
		}
		for k := range hist {
			hist[k] /= sum
		}
		ds.Append(hist)
	}
	for i := 0; i < catalogSize; i++ {
		for k := range hist {
			hist[k] = rng.Float64()
		}
		emit()
	}
	// Plant 10 duplicate groups of 3 (a re-encode and a thumbnail of the
	// same image, say).
	const groups = 10
	for g := 0; g < groups; g++ {
		src := rng.Intn(catalogSize)
		for copyN := 0; copyN < 2; copyN++ {
			base := ds.Point(src)
			for k := range hist {
				hist[k] = base[k] + rng.Float64()*1e-4
			}
			emit()
		}
	}
	return ds, groups
}

type unionFind struct {
	parent, size []int
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n), size: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
		uf.size[i] = 1
	}
	return uf
}

func (uf *unionFind) find(x int) int {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]]
		x = uf.parent[x]
	}
	return x
}

func (uf *unionFind) union(a, b int) {
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return
	}
	if uf.size[ra] < uf.size[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	uf.size[ra] += uf.size[rb]
}
