package core

import (
	"slices"
	"time"

	"simjoin/internal/join"
	"simjoin/internal/pairs"
)

// tasksPerWorker is how finely the parallel joins cut their work (see
// cutTasks), so that handing the tasks out largest first evens the workers
// out even when one stripe holds most of the points: a pivot-keyed level
// peels off one cluster and leaves the rest in a single stripe.
const tasksPerWorker = 4

// task is one independent piece of a join: the self-join of subtree a
// (b == nil) or the cross-join of two same-depth subtrees. Tasks cut from
// one join partition its pairs, so no pair is produced twice.
type task struct {
	a, b   *node
	depth  int
	weight int64 // pairs the task spans, before any filtering
}

func selfTask(n *node, depth int) task {
	c := int64(n.count())
	return task{a: n, depth: depth, weight: c * (c - 1) / 2}
}

func crossTask(a, b *node, depth int) task {
	return task{a: a, b: b, depth: depth, weight: int64(a.count()) * int64(b.count())}
}

// count returns the number of points under n.
func (n *node) count() int {
	c := len(n.pts)
	for _, ch := range n.children {
		if ch != nil {
			c += ch.count()
		}
	}
	return c
}

// splittable reports whether split can cut the task into smaller ones: a
// leaf on either side is joined whole.
func (tk task) splittable() bool {
	return !tk.a.leaf() && (tk.b == nil || !tk.b.leaf())
}

// split appends the task's sub-tasks — the same enumeration selfNode and
// crossNodes perform one level down — to out.
func (tk task) split(out []task) []task {
	d := tk.depth + 1
	ac := tk.a.children
	if tk.b == nil {
		for s, c := range ac {
			if c == nil {
				continue
			}
			out = append(out, selfTask(c, d))
			if s+1 < len(ac) && ac[s+1] != nil {
				out = append(out, crossTask(c, ac[s+1], d))
			}
		}
		return out
	}
	bc := tk.b.children
	for s := range ac {
		if bc[s] != nil {
			if ac[s] != nil {
				out = append(out, crossTask(ac[s], bc[s], d))
			}
			if s+1 < len(ac) && ac[s+1] != nil {
				out = append(out, crossTask(ac[s+1], bc[s], d))
			}
		}
		if ac[s] != nil && s+1 < len(bc) && bc[s+1] != nil {
			out = append(out, crossTask(ac[s], bc[s+1], d))
		}
	}
	return out
}

// cutTasks splits root — always its heaviest splittable piece next — until
// there are tasksPerWorker tasks per worker and none of them spans more
// than a worker's 1/tasksPerWorker share of root's pairs, or only whole
// leaves remain. It returns the tasks heaviest first, and the node visits
// the splits made: each split does one node's level of selfNode or
// crossNodes, whose visit no task charges again. One worker gets root
// whole: its run is one depth-first traversal from the root.
func cutTasks(root task, workers int) (tasks []task, visits int64) {
	tasks = []task{root}
	if workers == 1 {
		return tasks, 0
	}
	want := tasksPerWorker * workers
	limit := root.weight / int64(want)
	for {
		heaviest := -1
		for i, tk := range tasks {
			if tk.splittable() && (heaviest < 0 || tk.weight > tasks[heaviest].weight) {
				heaviest = i
			}
		}
		if heaviest < 0 || (len(tasks) >= want && tasks[heaviest].weight <= limit) {
			break
		}
		tk := tasks[heaviest]
		tasks = tk.split(slices.Delete(tasks, heaviest, heaviest+1))
		visits++
	}
	slices.SortStableFunc(tasks, func(x, y task) int {
		switch {
		case x.weight > y.weight:
			return -1
		case x.weight < y.weight:
			return 1
		}
		return 0
	})
	return tasks, visits
}

// run joins one task.
func (j *joiner) run(tk task) {
	if tk.b == nil {
		j.selfNode(tk.a, tk.depth)
	} else {
		j.crossNodes(tk.a, tk.b, tk.depth, false)
	}
}

// runTasks cuts root into tasks for opt.WorkerCount() workers and joins
// them (heaviest first) on at most that many, each with its own joiner
// from newJoiner.
func runTasks(root task, opt join.Options, newJoiner func() *joiner) {
	workers := opt.WorkerCount()
	tasks, visits := cutTasks(root, workers)
	opt.Stats().AddNodeVisits(visits)
	work := make(chan task, len(tasks))
	for _, tk := range tasks {
		work <- tk
	}
	close(work)
	join.Spread(min(workers, len(tasks)), func(int) {
		j := newJoiner()
		for tk := range work {
			j.run(tk)
		}
		j.flush(opt)
	})
}

// SelfJoinParallel runs the self-join spread across opt.WorkerCount()
// goroutines. newSink is called once per worker to obtain that worker's
// private result sink (pairs.Sharded handles, or a shared concurrency-safe
// pairs.Counter). The stripe decomposition is naturally parallel: each
// stripe owns its self-join plus its join with the next stripe, so no pair
// is produced twice, at the root or below it (cutTasks).
func (t *Tree) SelfJoinParallel(opt join.Options, newSink func() pairs.Sink) {
	t.admit(opt)
	if t.root == nil {
		return
	}
	probe := time.Now()
	defer func() { opt.Timing().AddProbe(time.Since(probe)) }()
	runTasks(selfTask(t.root, 0), opt, func() *joiner {
		return t.newJoiner(opt, newSink())
	})
}

// JoinTreesParallel is JoinTrees spread across opt.WorkerCount()
// goroutines; newSink supplies one private sink per worker. Frame rules are
// as for JoinTrees.
func JoinTreesParallel(ta, tb *Tree, opt join.Options, newSink func() pairs.Sink) {
	ta.admitPair(tb, opt)
	if ta.root == nil || tb.root == nil {
		return
	}
	probe := time.Now()
	defer func() { opt.Timing().AddProbe(time.Since(probe)) }()
	runTasks(crossTask(ta.root, tb.root, 0), opt, func() *joiner {
		return ta.newPairJoiner(tb, opt, newSink())
	})
}

// newJoiner returns the state of one self-join run over t into sink.
func (t *Tree) newJoiner(opt join.Options, sink pairs.Sink) *joiner {
	return t.newPairJoiner(t, opt, sink)
}

// newPairJoiner returns the state of one join run of t (side A) against o
// (side B, sharing t's frame) into sink.
func (t *Tree) newPairJoiner(o *Tree, opt join.Options, sink pairs.Sink) *joiner {
	j := &joiner{
		fa: t.ds.FlatView(), fb: o.ds.FlatView(),
		ka: t.keyTable(), kb: o.keyTable(),
		metric: opt.Metric, width: t.width, win: opt.Eps + t.slack(), th: opt.Threshold(),
		sweepKey: t.sweepKey, order: t.order, frameLo: t.box.Lo,
		sink: sink,
	}
	j.emitFwd = func(x, y int32) { j.sink.Emit(int(x), int(y)) }
	j.emitRev = func(x, y int32) { j.sink.Emit(int(y), int(x)) }
	return j
}
