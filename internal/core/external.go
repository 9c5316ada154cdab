package core

import (
	"fmt"
	"math"

	"simjoin/internal/dataset"
	"simjoin/internal/join"
	"simjoin/internal/pager"
	"simjoin/internal/pairs"
)

// ExternalConfig parameterizes the disk-resident join algorithms. All page
// traffic flows through a pager.Pool so the harness can report the I/O a
// real disk would have served (the F7 experiment).
type ExternalConfig struct {
	// PageBytes is the simulated page size (0 selects the pager default).
	PageBytes int
	// PoolPages is the buffer-pool budget in pages (required, ≥ 1).
	PoolPages int
	// MaxPartitions caps the stripe-partition count of the external ε-kdB
	// join so tiny ε values do not explode the file count (0 selects 512).
	// Partition width never drops below ε, preserving adjacency.
	MaxPartitions int
	// Tree configures the in-memory ε-kdB trees used inside partitions,
	// which are always keyed on raw coordinates (BuildWithBox).
	Tree Config
}

func (c ExternalConfig) withDefaults() ExternalConfig {
	if c.MaxPartitions <= 0 {
		c.MaxPartitions = 512
	}
	if c.PoolPages < 1 {
		panic(fmt.Sprintf("core: external join needs PoolPages ≥ 1, got %d", c.PoolPages))
	}
	return c
}

// mapSink translates partition-local indexes back to dataset-global ones.
type mapSink struct {
	sink   pairs.Sink
	ga, gb []int32
}

func (m mapSink) Emit(i, j int) { m.sink.Emit(int(m.ga[i]), int(m.gb[j])) }

// ExternalSelfJoin runs the partitioned external ε-kdB self-join: points
// are striped on dimension 0 into partitions of width max(ε, extent/cap)
// and written to simulated disk; each partition is then joined with itself
// and its successor using in-memory ε-kdB trees, with every page access
// charged through an LRU pool of cfg.PoolPages pages. With a pool that
// holds two partitions the algorithm reads each page about twice (once as
// "self", once as the predecessor's neighbor — the second visit usually
// hits the pool), so total I/O stays near two scans plus the partition
// write.
func ExternalSelfJoin(ds *dataset.Dataset, opt join.Options, cfg ExternalConfig, sink pairs.Sink) {
	opt.MustValidate()
	cfg = cfg.withDefaults()
	if ds.Len() < 2 {
		return
	}
	store := pager.NewStore(cfg.PageBytes, opt.Counters)
	dims := ds.Dims()
	box := ds.Bounds()
	ext := box.Hi[0] - box.Lo[0]
	width := opt.Eps
	if ext/width > float64(cfg.MaxPartitions) {
		width = ext / float64(cfg.MaxPartitions)
	}
	parts := 1
	if ext > 0 {
		parts = int(math.Ceil(ext / width))
		if parts < 1 {
			parts = 1
		}
	}

	// Write pass: one file per stripe partition; rows carry the global
	// index as coordinate 0 (exact in a float64 for any realistic size).
	files := make([]*pager.File, parts)
	for s := range files {
		files[s] = store.CreateFile(dims + 1)
	}
	row := make([]float64, dims+1)
	for i := 0; i < ds.Len(); i++ {
		p := ds.Point(i)
		s := int((p[0] - box.Lo[0]) / width)
		if s < 0 {
			s = 0
		}
		if s > parts-1 {
			s = parts - 1
		}
		row[0] = float64(i)
		copy(row[1:], p)
		files[s].Append(row)
	}
	for _, f := range files {
		f.Flush()
	}

	pool := pager.NewPool(store, cfg.PoolPages)
	for s := 0; s < parts; s++ {
		cur, gcur := loadPartition(pool, files[s], dims)
		if cur == nil {
			continue
		}
		// Self-join within the partition.
		if cur.Len() > 1 {
			t := BuildWithBox(cur, opt.Eps, cur.Bounds(), cfg.Tree)
			t.SelfJoin(opt, mapSink{sink: sink, ga: gcur, gb: gcur})
		}
		// Cross-join with the next partition (stripe adjacency on dim 0).
		if s+1 < parts {
			next, gnext := loadPartition(pool, files[s+1], dims)
			if next != nil {
				jbox := cur.Bounds()
				jbox.ExtendBox(next.Bounds())
				ta := BuildWithBox(cur, opt.Eps, jbox, cfg.Tree)
				tb := BuildWithBox(next, opt.Eps, jbox, cfg.Tree)
				JoinTrees(ta, tb, opt, mapSink{sink: sink, ga: gcur, gb: gnext})
			}
		}
	}
}

// ExternalBlockNestedLoopSelfJoin is the external baseline: the dataset is
// written sequentially and joined block against block, every block pair
// whose dim-0 ranges overlap within ε being loaded through the same LRU
// pool. Its I/O grows quadratically once the data outgrows the pool — the
// curve F7 contrasts with the partitioned ε-kdB join.
func ExternalBlockNestedLoopSelfJoin(ds *dataset.Dataset, opt join.Options, cfg ExternalConfig, sink pairs.Sink) {
	opt.MustValidate()
	cfg = cfg.withDefaults()
	if ds.Len() < 2 {
		return
	}
	store := pager.NewStore(cfg.PageBytes, opt.Counters)
	dims := ds.Dims()
	file := store.CreateFile(dims + 1)
	row := make([]float64, dims+1)
	for i := 0; i < ds.Len(); i++ {
		row[0] = float64(i)
		copy(row[1:], ds.Point(i))
		file.Append(row)
	}
	file.Flush()

	pool := pager.NewPool(store, cfg.PoolPages)
	blockPages := cfg.PoolPages / 2
	if blockPages < 1 {
		blockPages = 1
	}
	total := file.NumPages()
	for ps := 0; ps < total; ps += blockPages {
		pe := ps + blockPages
		if pe > total {
			pe = total
		}
		a, ga := loadPages(pool, file, dims, ps, pe)
		if a.Len() > 1 {
			t := BuildWithBox(a, opt.Eps, a.Bounds(), cfg.Tree)
			t.SelfJoin(opt, mapSink{sink: sink, ga: ga, gb: ga})
		}
		for qs := pe; qs < total; qs += blockPages {
			qe := qs + blockPages
			if qe > total {
				qe = total
			}
			b, gb := loadPages(pool, file, dims, qs, qe)
			if a.Len() == 0 || b.Len() == 0 {
				continue
			}
			jbox := a.Bounds()
			jbox.ExtendBox(b.Bounds())
			ta := BuildWithBox(a, opt.Eps, jbox, cfg.Tree)
			tb := BuildWithBox(b, opt.Eps, jbox, cfg.Tree)
			JoinTrees(ta, tb, opt, mapSink{sink: sink, ga: ga, gb: gb})
		}
	}
}

// loadPartition reads an entire partition file through the pool, returning
// the coordinate dataset and the global-index mapping (nil for an empty
// partition).
func loadPartition(pool *pager.Pool, f *pager.File, dims int) (*dataset.Dataset, []int32) {
	if f.Len() == 0 {
		return nil, nil
	}
	return loadPages(pool, f, dims, 0, f.NumPages())
}

// loadPages reads pages [ps, pe) of f through the pool, splitting each row
// into its global index (coordinate 0) and point coordinates.
func loadPages(pool *pager.Pool, f *pager.File, dims, ps, pe int) (*dataset.Dataset, []int32) {
	out := dataset.New(dims, (pe-ps)*f.PointsPerPage())
	var gidx []int32
	for pg := ps; pg < pe; pg++ {
		data := pool.Fetch(f, pg)
		for r := 0; r < f.PagePoints(pg); r++ {
			rec := pager.PagePoint(data, dims+1, r)
			gidx = append(gidx, int32(rec[0]))
			out.Append(rec[1:])
		}
	}
	return out, gidx
}
