package core

import (
	"fmt"
	"time"

	"simjoin/internal/dataset"
	"simjoin/internal/join"
	"simjoin/internal/pairs"
	"simjoin/internal/vec"
)

// SelfJoin builds an ε-kdB tree with default configuration over ds and
// reports every unordered pair within opt.Eps once. It is the convenience
// entry point with the shared algorithm signature; reuse a Tree directly
// when running several joins over one build.
func SelfJoin(ds *dataset.Dataset, opt join.Options, sink pairs.Sink) {
	opt.MustValidate()
	if ds.Len() < 2 {
		return
	}
	start := time.Now()
	t := Build(ds, opt.Eps, Config{Metric: opt.Metric})
	opt.Timing().AddBuild(time.Since(start))
	t.SelfJoin(opt, sink)
}

// Join builds two frame-aligned ε-kdB trees (BuildPair) and reports every
// (a-index, b-index) pair within opt.Eps.
func Join(a, b *dataset.Dataset, opt join.Options, sink pairs.Sink) {
	opt.MustValidate()
	if a.Len() == 0 || b.Len() == 0 {
		return
	}
	start := time.Now()
	ta, tb := BuildPair(a, b, opt.Eps, Config{Metric: opt.Metric})
	opt.Timing().AddBuild(time.Since(start))
	JoinTrees(ta, tb, opt, sink)
}

// SelfJoin runs the similarity self-join on a built tree. opt.Eps must not
// exceed the ε the tree was built for: stripes of width build-ε confine
// candidates for any smaller threshold too, so one tree built at the
// largest ε of interest serves every tighter query. A larger opt.Eps would
// silently lose pairs, so it panics — as does a metric the tree's pivot
// keys do not bound. It runs on the caller's goroutine: SelfJoinParallel
// at one worker.
func (t *Tree) SelfJoin(opt join.Options, sink pairs.Sink) {
	opt.Workers = 1
	t.SelfJoinParallel(opt, func() pairs.Sink { return sink })
}

// JoinTrees runs the two-set join over trees that share a frame (same ε,
// same keys, same box, same split order — build both with BuildPair, or
// with BuildWithBox over the joint bounding box). Pairs are emitted as
// (ta-index, tb-index). It runs on the caller's goroutine:
// JoinTreesParallel at one worker.
func JoinTrees(ta, tb *Tree, opt join.Options, sink pairs.Sink) {
	opt.Workers = 1
	JoinTreesParallel(ta, tb, opt, func() pairs.Sink { return sink })
}

// admit panics on a join the tree cannot answer exactly: invalid options,
// a threshold above the build ε, or a metric its keys do not bound.
func (t *Tree) admit(opt join.Options) {
	opt.MustValidate()
	if opt.Eps > t.eps {
		panic(fmt.Sprintf("core: join eps %g exceeds build eps %g (stripe adjacency would lose pairs)", opt.Eps, t.eps))
	}
	t.serves(opt.Metric)
}

// admitPair is admit for a two-set join, which also needs one frame.
func (t *Tree) admitPair(o *Tree, opt join.Options) {
	t.admit(opt)
	if !t.sameFrame(o) {
		panic("core: joining trees with different frames (eps/keys/box/order); build both with BuildPair, or with BuildWithBox over the joint bounding box")
	}
}

// joiner carries the state of one join run. Side A always refers to the
// first dataset; the flip flag on recursion tracks orientation so emitted
// pairs stay (a-index, b-index) even when the traversal descends the B tree
// while holding a flat A point list.
type joiner struct {
	fa, fb   vec.Flat // kernel views of the A and B datasets
	ka, kb   vec.Keys // their key tables: what stripes and windows read
	metric   vec.Metric
	width    float64 // stripe width the trees were built with
	win      float64 // sweep window: the query ε (≤ build ε) plus the keys' slack
	th       float64 // kernel threshold for the query ε, never widened
	sweepKey int
	order    []int
	frameLo  []float64 // stripe-grid origin per key (shared frame)
	sink     pairs.Sink

	// emitFwd/emitRev adapt the sink to the kernels' int32 callbacks, built
	// once per joiner so the leaf sweeps don't allocate a closure per call.
	emitFwd, emitRev func(x, y int32)

	// bucketScratch[depth] holds the stable-bucketing buffer and the
	// stripe counters of the ptsVsNode call at that depth. The traversal is
	// depth-first, so one buffer per depth is never live twice (the call's
	// counters stay live across its recursive calls, which is why they
	// cannot share one buffer); reusing them removes the join's
	// allocations.
	bucketScratch [][]int32

	cand, res, visits int64
}

// scratchAt returns the depth's scratch buffer at length n. Its contents
// are whatever the last call at that depth left.
func (j *joiner) scratchAt(depth, n int) []int32 {
	for len(j.bucketScratch) <= depth {
		j.bucketScratch = append(j.bucketScratch, nil)
	}
	if cap(j.bucketScratch[depth]) < n {
		j.bucketScratch[depth] = make([]int32, n)
	}
	return j.bucketScratch[depth][:n]
}

func (j *joiner) flush(opt join.Options) {
	c := opt.Stats()
	c.AddCandidates(j.cand)
	c.AddDistComps(j.cand)
	c.AddResults(j.res)
	c.AddNodeVisits(j.visits)
}

// selfNode joins a subtree with itself: every stripe self-joins, and every
// adjacent stripe pair cross-joins exactly once.
func (j *joiner) selfNode(n *node, depth int) {
	j.visits++
	if n.leaf() {
		j.leafSelf(n.pts)
		return
	}
	for s, c := range n.children {
		if c == nil {
			continue
		}
		j.selfNode(c, depth+1)
		if s+1 < len(n.children) && n.children[s+1] != nil {
			j.crossNodes(c, n.children[s+1], depth+1, false)
		}
	}
}

// crossNodes joins two distinct subtrees at the same depth. flip reports
// that a is from the B side (so emits must swap).
func (j *joiner) crossNodes(a, b *node, depth int, flip bool) {
	j.visits++
	switch {
	case a.leaf() && b.leaf():
		j.crossSweep(a.pts, b.pts, flip)
	case a.leaf():
		j.ptsVsNode(a.pts, b, depth, flip)
	case b.leaf():
		j.ptsVsNode(b.pts, a, depth, !flip)
	default:
		// Both split dimension order[depth] on the same global stripe
		// grid: stripe s of a can only meet stripes s−1, s, s+1 of b. Each
		// ordered adjacent stripe pair is visited exactly once: (s, s),
		// (s, s+1) and (s+1, s) at iteration s — independently of which
		// stripes happen to be empty.
		ac, bc := a.children, b.children
		for s := range ac {
			if bc[s] != nil {
				if ac[s] != nil {
					j.crossNodes(ac[s], bc[s], depth+1, flip)
				}
				if s+1 < len(ac) && ac[s+1] != nil {
					j.crossNodes(ac[s+1], bc[s], depth+1, flip)
				}
			}
			if ac[s] != nil && s+1 < len(bc) && bc[s+1] != nil {
				j.crossNodes(ac[s], bc[s+1], depth+1, flip)
			}
		}
	}
}

// ptsVsNode joins a flat, sweep-sorted point list (whose region spans the
// node's split dimension) against subtree n. flip reports that pts is from
// the B side. The list is bucketed by the split dimension's stripes so each
// child only meets the points of its own and adjacent stripes.
func (j *joiner) ptsVsNode(pts []int32, n *node, depth int, flip bool) {
	j.visits++
	if n.leaf() {
		j.crossSweep(pts, n.pts, flip)
		return
	}
	keys := j.ka
	if flip {
		keys = j.kb
	}
	dim := j.order[depth]
	ks, stride := keys.Data[dim:], keys.Stride
	s := len(n.children)
	// Stable counting-sort bucketing into the depth's scratch buffer:
	// bucket order preserves the sweep-dimension sort the leaf sweeps rely
	// on, and the buffer reuse keeps this allocation-free after warm-up.
	scratch := j.scratchAt(depth, len(pts)+2*s+1)
	buf, counts, cur := scratch[:len(pts)], scratch[len(pts):len(pts)+s+1], scratch[len(pts)+s+1:]
	clear(counts)
	for _, i := range pts {
		counts[j.stripeOfDim(ks[int(i)*stride], dim, s)+1]++
	}
	for st := 0; st < s; st++ {
		counts[st+1] += counts[st]
	}
	copy(cur, counts[:s])
	for _, i := range pts {
		st := j.stripeOfDim(ks[int(i)*stride], dim, s)
		buf[cur[st]] = i
		cur[st]++
	}
	bucket := func(st int) []int32 {
		return buf[counts[st]:counts[st+1]:counts[st+1]]
	}
	for st, c := range n.children {
		if c == nil {
			continue
		}
		for _, bs := range [3]int{st - 1, st, st + 1} {
			if bs < 0 || bs >= s || counts[bs+1] == counts[bs] {
				continue
			}
			j.ptsVsNode(bucket(bs), c, depth+1, flip)
		}
	}
}

// stripeOfDim mirrors Tree.stripeOf using the joiner's frame (both trees
// share it).
func (j *joiner) stripeOfDim(v float64, dim, stripes int) int {
	s := int((v - j.frameLo[dim]) / j.width)
	if s < 0 {
		s = 0
	}
	if s > stripes-1 {
		s = stripes - 1
	}
	return s
}

// leafSelf reports in-range pairs inside one sweep-sorted leaf: for each
// point, only the followers within the sweep window are tested. The whole
// sweep runs inside one metric-specialized flat kernel.
func (j *joiner) leafSelf(pts []int32) {
	cand, res := vec.SelfSweepKeyed(j.metric, j.fa, j.ka, pts, j.sweepKey, j.win, j.th, j.emitFwd)
	j.cand += cand
	j.res += res
}

// crossSweep merges two sweep-sorted lists, testing only pairs whose sweep
// keys differ by at most the window. flip reports that x is from the B side.
func (j *joiner) crossSweep(x, y []int32, flip bool) {
	fx, fy, kx, ky, emit := j.fa, j.fb, j.ka, j.kb, j.emitFwd
	if flip {
		fx, fy, kx, ky, emit = j.fb, j.fa, j.kb, j.ka, j.emitRev
	}
	cand, res := vec.CrossSweepKeyed(j.metric, fx, fy, kx, ky, x, y, j.sweepKey, j.win, j.th, emit)
	j.cand += cand
	j.res += res
}
