package simjoin

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
)

// reuseRun is one ε-kdB join's pairs, its report and its entry span's
// "tree" attribute ("built" or "reused").
type reuseRun struct {
	pairs []Pair
	st    JoinStats
	tree  string
}

// reuseJoin runs the self-join of a (b nil) or the join of a with b, traced.
func reuseJoin(a, b *Dataset, opt Options) (reuseRun, error) {
	tr := NewTracer(1)
	root := tr.Start("test")
	opt.Trace = root
	var res *Result
	var err error
	if b == nil {
		res, err = SelfJoin(a, opt)
	} else {
		res, err = Join(a, b, opt)
	}
	root.End()
	if err != nil {
		return reuseRun{}, err
	}
	run := reuseRun{pairs: res.Pairs, st: res.Stats}
	for _, sp := range tr.Traces()[0].Spans {
		if strings.HasPrefix(sp.Name, "simjoin.") {
			run.tree = sp.Attr("tree")
		}
	}
	return run, nil
}

// mustReuseJoin is reuseJoin that fails t on an error.
func mustReuseJoin(t *testing.T, a, b *Dataset, opt Options) reuseRun {
	t.Helper()
	run, err := reuseJoin(a, b, opt)
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// sameWork reports how run differs from want in pairs or work counters
// ("" when it does not).
func sameWork(run, want reuseRun) string {
	switch {
	case !slices.Equal(run.pairs, want.pairs):
		return "pairs differ"
	case run.st.DistComps != want.st.DistComps, run.st.Candidates != want.st.Candidates,
		run.st.NodeVisits != want.st.NodeVisits, run.st.Keys != want.st.Keys:
		return "counters differ"
	}
	return ""
}

// TestReuseMatchesFreshBuild: a join that reuses its dataset's kept tree
// returns the pairs and the work counters of one over a fresh build —
// self and two-set, raw and pivot keys, at one worker and at three — and
// differs only in time: no build, BuildTime 0 and the span's tree=reused.
func TestReuseMatchesFreshBuild(t *testing.T) {
	for _, tc := range []struct {
		name      string
		dims, n   int
		eps       float64
		pivotKeys bool
	}{
		{"raw", 4, 800, 0.08, false},
		{"pivot", 64, 1500, 0.5, true},
	} {
		for _, two := range []bool{false, true} {
			for _, workers := range []int{1, 3} {
				// The partner shares the seed, so its clusters coincide.
				gen := func() (a, b *Dataset) {
					a = synthetic(t, "clustered", tc.n, tc.dims, 3)
					if two {
						b = synthetic(t, "clustered", tc.n/2, tc.dims, 3)
					}
					return a, b
				}
				opt := Options{Eps: tc.eps, Workers: workers}
				a, b := gen()
				first := mustReuseJoin(t, a, b, opt)
				again := mustReuseJoin(t, a, b, opt)
				fa, _ := gen()
				fresh := mustReuseJoin(t, fa, b, opt)
				what := fmt.Sprintf("%s/two-set=%v/w%d", tc.name, two, workers)
				if first.tree != "built" || first.st.BuildTime <= 0 {
					t.Errorf("%s: first join tree=%q BuildTime=%v, want a build", what, first.tree, first.st.BuildTime)
				}
				if again.tree != "reused" || again.st.BuildTime != 0 {
					t.Errorf("%s: second join tree=%q BuildTime=%v, want the kept tree", what, again.tree, again.st.BuildTime)
				}
				if fresh.tree != "built" {
					t.Errorf("%s: join over a new dataset tree=%q, want built", what, fresh.tree)
				}
				if diff := sameWork(again, fresh); diff != "" {
					t.Errorf("%s: reused run vs fresh build: %s (%+v vs %+v)", what, diff, again.st, fresh.st)
				}
				if strings.HasPrefix(again.st.Keys, "pivot/") != tc.pivotKeys {
					t.Errorf("%s: keys %q", what, again.st.Keys)
				}
			}
		}
	}
}

// TestReuseRebuilds: any change to what the kept tree answers for — the
// dataset's or the partner's length, ε, the metric, the partner — builds
// again, and the new build is the one kept. Non-ε-kdB engines build no
// tree and touch nothing.
func TestReuseRebuilds(t *testing.T) {
	a := synthetic(t, "clustered", 400, 4, 7)
	b := synthetic(t, "clustered", 300, 4, 8)
	c := synthetic(t, "clustered", 300, 4, 9)
	opt := Options{Eps: 0.1}
	other := func(f func(*Options)) Options {
		o := opt
		f(&o)
		return o
	}
	steps := []struct {
		what string
		b    *Dataset
		opt  Options
		tree string
	}{
		{"first self-join", nil, opt, "built"},
		{"same self-join", nil, opt, "reused"},
		{"brute self-join", nil, other(func(o *Options) { o.Algorithm = AlgorithmBrute }), ""},
		{"self-join after brute", nil, opt, "reused"},
		{"another ε", nil, other(func(o *Options) { o.Eps = 0.12 }), "built"},
		{"the first ε again", nil, opt, "built"},
		{"another metric", nil, other(func(o *Options) { o.Metric = L1 }), "built"},
		{"L2 again", nil, opt, "built"},
		{"a two-set join", b, opt, "built"},
		{"the same two-set join", b, opt, "reused"},
		{"another partner", c, opt, "built"},
		{"the first partner again", b, opt, "built"},
		{"a self-join after a two-set join", nil, opt, "built"},
	}
	for _, st := range steps {
		if run := mustReuseJoin(t, a, st.b, st.opt); run.tree != st.tree {
			t.Errorf("%s: tree=%q, want %q", st.what, run.tree, st.tree)
		}
	}

	// Appends: the grown set's join builds, and answers what a fresh
	// build over the same points answers.
	mustReuseJoin(t, a, b, opt)
	b.Append(a.Point(0))
	if run := mustReuseJoin(t, a, b, opt); run.tree != "built" {
		t.Errorf("after the partner's Append: tree=%q, want built", run.tree)
	}
	mustReuseJoin(t, a, nil, opt)
	a.Append(b.Point(1))
	run := mustReuseJoin(t, a, nil, opt)
	if run.tree != "built" {
		t.Errorf("after Append: tree=%q, want built", run.tree)
	}
	grown := synthetic(t, "clustered", 400, 4, 7)
	grown.Append(b.Point(1))
	if diff := sameWork(run, mustReuseJoin(t, grown, nil, opt)); diff != "" {
		t.Errorf("after Append: %s from a fresh build", diff)
	}
}

// TestReuseConcurrent: goroutines joining one Dataset at once — self-joins
// and two-set joins, which take turns replacing the one kept build — each
// get the answer a fresh build gives. Run it under -race.
func TestReuseConcurrent(t *testing.T) {
	a := synthetic(t, "clustered", 600, 4, 11)
	b := synthetic(t, "clustered", 400, 4, 12)
	opt := Options{Eps: 0.08, Workers: 2}
	want := map[bool]reuseRun{
		false: mustReuseJoin(t, synthetic(t, "clustered", 600, 4, 11), nil, opt),
		true:  mustReuseJoin(t, synthetic(t, "clustered", 600, 4, 11), b, opt),
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(two bool) {
			defer wg.Done()
			for k := 0; k < 3; k++ {
				partner := (*Dataset)(nil)
				if two {
					partner = b
				}
				run, err := reuseJoin(a, partner, opt)
				if err != nil {
					t.Error(err)
					return
				}
				if diff := sameWork(run, want[two]); diff != "" {
					t.Errorf("two-set=%v run %d: %s", two, k, diff)
				}
			}
		}(g%2 == 1)
	}
	wg.Wait()
}
