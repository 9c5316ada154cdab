package core

import (
	"sync"
	"time"

	"simjoin/internal/join"
	"simjoin/internal/pairs"
)

// SelfJoinParallel runs the self-join with the root's stripe work spread
// across opt.WorkerCount() goroutines. newSink is called once per worker to
// obtain that worker's private result sink (pairs.Sharded handles, or a
// shared concurrency-safe pairs.Counter). The stripe decomposition is
// naturally parallel: each root stripe owns its self-join plus its join
// with the next stripe, so no pair is produced twice.
//
// When the root is a leaf (tiny input or a one-stripe frame) the join runs
// serially on a single worker sink.
func (t *Tree) SelfJoinParallel(opt join.Options, newSink func() pairs.Sink) {
	opt.MustValidate()
	if opt.Eps > t.eps {
		panic("core: join eps exceeds build eps (stripe adjacency would lose pairs)")
	}
	if t.root == nil {
		return
	}
	probe := time.Now()
	defer func() { opt.Timing().AddProbe(time.Since(probe)) }()
	if t.root.leaf() {
		j := t.newJoiner(opt, newSink())
		j.selfNode(t.root, 0)
		j.flush(opt)
		return
	}
	type task struct {
		a, b *node // b == nil means self-join of a
	}
	children := t.root.children
	tasks := make([]task, 0, 2*len(children))
	for s, c := range children {
		if c == nil {
			continue
		}
		tasks = append(tasks, task{a: c})
		if s+1 < len(children) && children[s+1] != nil {
			tasks = append(tasks, task{a: c, b: children[s+1]})
		}
	}
	workers := opt.WorkerCount()
	if workers > len(tasks) {
		workers = len(tasks)
	}
	work := make(chan task, len(tasks))
	for _, tk := range tasks {
		work <- tk
	}
	close(work)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			j := t.newJoiner(opt, newSink())
			for tk := range work {
				if tk.b == nil {
					j.selfNode(tk.a, 1)
				} else {
					j.crossNodes(tk.a, tk.b, 1, false)
				}
			}
			j.flush(opt)
		}()
	}
	wg.Wait()
}

// JoinTreesParallel is JoinTrees with the root's stripe pairs spread
// across opt.WorkerCount() goroutines; newSink supplies one private sink
// per worker. Frame rules are as for JoinTrees. When either root is a leaf
// the join runs serially (there is no stripe decomposition to parallelize).
func JoinTreesParallel(ta, tb *Tree, opt join.Options, newSink func() pairs.Sink) {
	opt.MustValidate()
	if opt.Eps > ta.eps {
		panic("core: join eps exceeds build eps (stripe adjacency would lose pairs)")
	}
	if !ta.sameFrame(tb) {
		panic("core: joining trees with different frames; build both with BuildWithBox over the joint bounding box")
	}
	if ta.root == nil || tb.root == nil {
		return
	}
	probe := time.Now()
	defer func() { opt.Timing().AddProbe(time.Since(probe)) }()
	newCrossJoiner := func(sink pairs.Sink) *joiner {
		j := ta.newJoiner(opt, sink)
		j.fb = tb.ds.FlatView()
		return j
	}
	if ta.root.leaf() || tb.root.leaf() {
		j := newCrossJoiner(newSink())
		j.crossNodes(ta.root, tb.root, 0, false)
		j.flush(opt)
		return
	}
	// Each task is one adjacent stripe pair of the two roots — the same
	// enumeration crossNodes performs, flattened into a work queue.
	type task struct{ a, b *node }
	ac, bc := ta.root.children, tb.root.children
	tasks := make([]task, 0, 3*len(ac))
	for s := range ac {
		if bc[s] != nil {
			if ac[s] != nil {
				tasks = append(tasks, task{a: ac[s], b: bc[s]})
			}
			if s+1 < len(ac) && ac[s+1] != nil {
				tasks = append(tasks, task{a: ac[s+1], b: bc[s]})
			}
		}
		if ac[s] != nil && s+1 < len(bc) && bc[s+1] != nil {
			tasks = append(tasks, task{a: ac[s], b: bc[s+1]})
		}
	}
	if len(tasks) == 0 {
		return
	}
	workers := opt.WorkerCount()
	if workers > len(tasks) {
		workers = len(tasks)
	}
	work := make(chan task, len(tasks))
	for _, tk := range tasks {
		work <- tk
	}
	close(work)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			j := newCrossJoiner(newSink())
			for tk := range work {
				j.crossNodes(tk.a, tk.b, 1, false)
			}
			j.flush(opt)
		}()
	}
	wg.Wait()
}

func (t *Tree) newJoiner(opt join.Options, sink pairs.Sink) *joiner {
	f := t.ds.FlatView()
	j := &joiner{
		fa: f, fb: f,
		metric: opt.Metric, eps: t.eps, qeps: opt.Eps, th: opt.Threshold(),
		sweepDim: t.sweepDim, order: t.order, frameLo: t.box.Lo,
		sink: sink,
	}
	j.emitFwd = func(x, y int32) { j.sink.Emit(int(x), int(y)) }
	j.emitRev = func(x, y int32) { j.sink.Emit(int(y), int(x)) }
	return j
}
