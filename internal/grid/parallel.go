package grid

import (
	"sync"
	"time"

	"simjoin/internal/dataset"
	"simjoin/internal/join"
	"simjoin/internal/pairs"
	"simjoin/internal/vec"
)

// SelfJoinParallel is SelfJoin with the per-cell work spread across
// opt.WorkerCount() goroutines. newSink is called once per worker to obtain
// that worker's private result sink (use pairs.Sharded, or a shared
// pairs.Counter returned from every call). The grid decomposition makes
// this embarrassingly parallel: each occupied cell owns its within-cell
// pairs and its lexicographically-positive neighbor pairs, so no pair is
// claimed by two cells.
// JoinParallel is Join with the probe side spread across
// opt.WorkerCount() goroutines: the grid is built once over b (on the
// joint bounding box, exactly as JoinConfig does), then the workers
// stride over a's points, each probing its own 3^g neighborhood into a
// private sink from newSink. Point-partitioning the probe side cannot
// duplicate: every (a, b) pair is owned by its a-point.
func JoinParallel(a, b *dataset.Dataset, opt join.Options, cfg Config, newSink func() pairs.Sink) {
	opt.MustValidate()
	if a.Len() == 0 || b.Len() == 0 {
		return
	}
	c := opt.Stats()
	t := opt.Threshold()
	start := time.Now()
	box := a.Bounds()
	box.ExtendBox(b.Bounds())
	ix := build(b, opt.Eps, box, cfg)
	g := len(ix.gridded)
	offsets := allOffsets(g)
	opt.Timing().AddBuild(time.Since(start))
	probe := time.Now()
	defer func() { opt.Timing().AddProbe(time.Since(probe)) }()
	fa := a.FlatView()
	fb := b.FlatView()
	workers := opt.WorkerCount()
	if workers > a.Len() {
		workers = a.Len()
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sink := newSink()
			coords := make([]int32, g)
			nb := make([]int32, g)
			keyBuf := make([]byte, 0, 4*g)
			var cand, res int64
			var cur int32
			emit := func(yi int32) { sink.Emit(int(cur), int(yi)) }
			for i := w; i < a.Len(); i += workers {
				ix.cellOf(a.Point(i), coords)
				cur = int32(i)
				for _, off := range offsets {
					for k := range nb {
						nb[k] = coords[k] + int32(off[k])
					}
					members, ok := ix.cells[string(encode(keyBuf[:0], nb))]
					if !ok {
						continue
					}
					pc, pr := vec.ProbeListFlat(opt.Metric, fa, cur, fb, members, t, emit)
					cand += pc
					res += pr
				}
			}
			c.AddCandidates(cand)
			c.AddDistComps(cand)
			c.AddResults(res)
		}(w)
	}
	wg.Wait()
}

func SelfJoinParallel(ds *dataset.Dataset, opt join.Options, cfg Config, newSink func() pairs.Sink) {
	opt.MustValidate()
	if ds.Len() < 2 {
		return
	}
	c := opt.Stats()
	t := opt.Threshold()
	start := time.Now()
	ix := build(ds, opt.Eps, ds.Bounds(), cfg)
	g := len(ix.gridded)
	offsets := positiveOffsets(g)
	opt.Timing().AddBuild(time.Since(start))
	probe := time.Now()
	defer func() { opt.Timing().AddProbe(time.Since(probe)) }()

	f := ds.FlatView()
	keys := make([]string, 0, len(ix.cells))
	for key := range ix.cells {
		keys = append(keys, key)
	}
	workers := opt.WorkerCount()
	if workers > len(keys) {
		workers = len(keys)
	}
	work := make(chan string, len(keys))
	for _, k := range keys {
		work <- k
	}
	close(work)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sink := newSink()
			nb := make([]int32, g)
			keyBuf := make([]byte, 0, 4*g)
			var cand, res int64
			var cur int32
			emit := func(yi int32) { sink.Emit(int(cur), int(yi)) }
			for key := range work {
				members := ix.cells[key]
				for a := 0; a < len(members); a++ {
					cur = members[a]
					pc, pr := vec.ProbeListFlat(opt.Metric, f, cur, f, members[a+1:], t, emit)
					cand += pc
					res += pr
				}
				coords := decode(key, g)
				for _, off := range offsets {
					for k := range nb {
						nb[k] = coords[k] + int32(off[k])
					}
					other, ok := ix.cells[string(encode(keyBuf[:0], nb))]
					if !ok {
						continue
					}
					for _, ia := range members {
						cur = ia
						pc, pr := vec.ProbeListFlat(opt.Metric, f, ia, f, other, t, emit)
						cand += pc
						res += pr
					}
				}
			}
			c.AddCandidates(cand)
			c.AddDistComps(cand)
			c.AddResults(res)
		}()
	}
	wg.Wait()
}
