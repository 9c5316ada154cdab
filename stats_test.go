package simjoin

import (
	"math"
	"slices"
	"sort"
	"strings"
	"testing"
)

// TestJoinStatsBruteExact pins the brute-force distance-evaluation count:
// the nested loop tests every unordered pair exactly once, so DistComps
// must be exactly n(n-1)/2.
func TestJoinStatsBruteExact(t *testing.T) {
	const n = 50
	ds, err := Synthetic("uniform", n, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	var js JoinStats
	res, err := SelfJoin(ds, Options{Eps: 0.2, Algorithm: AlgorithmBrute, Stats: &js})
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(n * (n - 1) / 2); js.DistComps != want {
		t.Errorf("brute DistComps = %d, want exactly %d", js.DistComps, want)
	}
	if js.Algorithm != AlgorithmBrute {
		t.Errorf("Algorithm = %q, want brute", js.Algorithm)
	}
	if js.PairsEmitted != int64(len(res.Pairs)) {
		t.Errorf("PairsEmitted = %d, want %d", js.PairsEmitted, len(res.Pairs))
	}
	if js.BuildTime != 0 {
		t.Errorf("brute BuildTime = %v, want 0 (no index to build)", js.BuildTime)
	}
	if js.ProbeTime <= 0 {
		t.Errorf("brute ProbeTime = %v, want > 0", js.ProbeTime)
	}
	if js.Elapsed <= 0 {
		t.Error("Elapsed not positive")
	}
}

// TestJoinStatsEveryAlgorithm checks that every engine charges the
// observability hook on both the serial and the parallel path: non-zero
// distance evaluations, a PairsEmitted count matching the result, and a
// probe-phase wall time.
func TestJoinStatsEveryAlgorithm(t *testing.T) {
	ds, err := Synthetic("clustered", 400, 6, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range Algorithms() {
		for _, workers := range []int{1, 4} {
			var js JoinStats
			res, err := SelfJoin(ds, Options{Eps: 0.1, Algorithm: algo, Workers: workers, Stats: &js})
			if err != nil {
				t.Fatalf("%s/w%d: %v", algo, workers, err)
			}
			if js.Algorithm != algo {
				t.Errorf("%s/w%d: Algorithm = %q", algo, workers, js.Algorithm)
			}
			if js.DistComps <= 0 {
				t.Errorf("%s/w%d: DistComps = %d, want > 0", algo, workers, js.DistComps)
			}
			if js.PairsEmitted != int64(len(res.Pairs)) {
				t.Errorf("%s/w%d: PairsEmitted = %d, want %d", algo, workers, js.PairsEmitted, len(res.Pairs))
			}
			if js.ProbeTime <= 0 {
				t.Errorf("%s/w%d: ProbeTime = %v, want > 0", algo, workers, js.ProbeTime)
			}
			if algo != AlgorithmBrute && js.BuildTime <= 0 {
				t.Errorf("%s/w%d: BuildTime = %v, want > 0", algo, workers, js.BuildTime)
			}
			if js.Elapsed <= 0 {
				t.Errorf("%s/w%d: Elapsed not positive", algo, workers)
			}
		}
	}
}

// TestJoinStatsAutoResolves checks that Stats reports the concrete
// algorithm Auto picked, not "auto".
func TestJoinStatsAutoResolves(t *testing.T) {
	ds, err := Synthetic("uniform", 200, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	var js JoinStats
	if _, err := SelfJoin(ds, Options{Eps: 0.1, Algorithm: AlgorithmAuto, Stats: &js}); err != nil {
		t.Fatal(err)
	}
	if js.Algorithm == AlgorithmAuto || js.Algorithm == "" {
		t.Errorf("auto run reported Algorithm = %q, want a concrete algorithm", js.Algorithm)
	}
}

// TestJoinStatsTwoSet covers the two-set entry point for every algorithm.
func TestJoinStatsTwoSet(t *testing.T) {
	a, _ := Synthetic("uniform", 300, 5, 1)
	b, _ := Synthetic("clustered", 200, 5, 2)
	for _, algo := range Algorithms() {
		var js JoinStats
		res, err := Join(a, b, Options{Eps: 0.15, Algorithm: algo, Stats: &js})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if js.DistComps <= 0 {
			t.Errorf("%s: DistComps = %d, want > 0", algo, js.DistComps)
		}
		if js.PairsEmitted != int64(len(res.Pairs)) {
			t.Errorf("%s: PairsEmitted = %d, want %d", algo, js.PairsEmitted, len(res.Pairs))
		}
	}
}

// TestJoinStatsStreamingAndCounting checks that the non-collecting paths —
// SelfJoinEach / JoinEach streaming and CollectPairs=false counting —
// return the report too, copy it whole to Options.Stats, and count in
// PairsEmitted the pairs delivered or counted.
func TestJoinStatsStreamingAndCounting(t *testing.T) {
	ds, err := Synthetic("clustered", 300, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	base, err := SelfJoin(ds, Options{Eps: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(len(base.Pairs))
	if want == 0 {
		t.Fatal("degenerate test: no pairs")
	}

	var js JoinStats
	var streamed int64
	st, err := SelfJoinEach(ds, Options{Eps: 0.1, Stats: &js}, func(i, j int) { streamed++ })
	if err != nil {
		t.Fatal(err)
	}
	if st != js || st.PairsEmitted != streamed || streamed != want {
		t.Errorf("streaming: report %+v, Options.Stats %+v, streamed %d, want %d", st, js, streamed, want)
	}
	if st.DistComps <= 0 {
		t.Error("streaming: DistComps not charged")
	}

	js = JoinStats{}
	off := false
	res, err := SelfJoin(ds, Options{Eps: 0.1, CollectPairs: &off, Stats: &js})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats != js || js.PairsEmitted != want {
		t.Errorf("counting-only: report %+v, Options.Stats %+v, want %d pairs", res.Stats, js, want)
	}

	js = JoinStats{}
	var crossed int64
	st, err = JoinEach(ds, ds, Options{Eps: 0.1, Stats: &js}, func(i, j int) { crossed++ })
	if err != nil {
		t.Fatal(err)
	}
	if st != js || st.PairsEmitted != crossed || crossed <= 0 {
		t.Errorf("JoinEach: report %+v, Options.Stats %+v, delivered %d", st, js, crossed)
	}
}

// TestJoinStatsCollectPhase pins the report every entry point returns:
// Options.Stats receives the same report, PairsEmitted counts the pairs
// collected, delivered or counted, a run that returns its pairs reports
// the time it spent merging, sorting and converting them, a counting or
// streaming run holds no pairs and reports none, and the three phases
// never add up to more than the run's wall time.
func TestJoinStatsCollectPhase(t *testing.T) {
	ds, err := Synthetic("clustered", 2000, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	self, err := SelfJoin(ds, Options{Eps: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	two, err := Join(ds, ds, Options{Eps: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	nSelf, nJoin := int64(len(self.Pairs)), int64(len(two.Pairs))
	if nSelf == 0 {
		t.Fatal("degenerate test: no pairs")
	}
	off := false
	var delivered int64
	deliver := func(i, j int) { delivered++ }
	runs := []struct {
		name    string
		collect bool
		count   bool  // hands over no pairs at all
		want    int64 // pairs in the result
		run     func(opt Options) (*Result, error)
	}{
		{"SelfJoin", true, false, nSelf, func(o Options) (*Result, error) { return SelfJoin(ds, o) }},
		{"SelfJoin/grid", true, false, nSelf, func(o Options) (*Result, error) { o.Algorithm = AlgorithmGrid; return SelfJoin(ds, o) }},
		{"Join", true, false, nJoin, func(o Options) (*Result, error) { return Join(ds, ds, o) }},
		{"SelfJoin/count", false, true, nSelf, func(o Options) (*Result, error) { o.CollectPairs = &off; return SelfJoin(ds, o) }},
		{"Join/count", false, true, nJoin, func(o Options) (*Result, error) { o.CollectPairs = &off; return Join(ds, ds, o) }},
		{"SelfJoinEach", false, false, nSelf, func(o Options) (*Result, error) {
			st, err := SelfJoinEach(ds, o, deliver)
			return &Result{Stats: st}, err
		}},
		{"JoinEach", false, false, nJoin, func(o Options) (*Result, error) {
			st, err := JoinEach(ds, ds, o, deliver)
			return &Result{Stats: st}, err
		}},
	}
	for _, rn := range runs {
		for _, workers := range []int{1, 3} {
			var js JoinStats
			delivered = 0
			res, err := rn.run(Options{Eps: 0.1, Workers: workers, Stats: &js})
			if err != nil {
				t.Fatalf("%s/w%d: %v", rn.name, workers, err)
			}
			if res.Stats != js {
				t.Errorf("%s/w%d: returned report %+v, Options.Stats %+v", rn.name, workers, res.Stats, js)
			}
			handed, wantHanded := int64(len(res.Pairs))+delivered, rn.want
			if rn.count {
				wantHanded = 0
			}
			if js.PairsEmitted != rn.want || handed != wantHanded {
				t.Errorf("%s/w%d: PairsEmitted %d with %d pairs collected or delivered, want %d and %d",
					rn.name, workers, js.PairsEmitted, handed, rn.want, wantHanded)
			}
			switch {
			case rn.collect && js.CollectTime <= 0:
				t.Errorf("%s/w%d: CollectTime = %v, want > 0", rn.name, workers, js.CollectTime)
			case !rn.collect && (js.CollectTime != 0 || res.Pairs != nil):
				t.Errorf("%s/w%d: CollectTime = %v with %d pairs returned, want none of either",
					rn.name, workers, js.CollectTime, len(res.Pairs))
			}
			if sum := js.BuildTime + js.ProbeTime + js.CollectTime; sum > js.Elapsed {
				t.Errorf("%s/w%d: build %v + probe %v + collect %v = %v exceeds Elapsed %v",
					rn.name, workers, js.BuildTime, js.ProbeTime, js.CollectTime, sum, js.Elapsed)
			}
		}
	}
}

// TestTracePhaseIntervals checks a traced collecting run lays its phases
// out as child intervals of the entry point's span, in the order they ran,
// and that a streaming run has no collect interval.
func TestTracePhaseIntervals(t *testing.T) {
	ds, err := Synthetic("clustered", 2000, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	phasesOf := func(run func(sp *Span)) []string {
		tr := NewTracer(1)
		root := tr.Start("test")
		run(root)
		root.End()
		var entry string
		spans := tr.Traces()[0].Spans
		for _, sp := range spans {
			if strings.HasPrefix(sp.Name, "simjoin.") {
				entry = sp.SpanID
			}
		}
		var kids []SpanData
		for _, sp := range spans {
			if sp.ParentID == entry {
				kids = append(kids, sp)
			}
		}
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start.Before(kids[b].Start) })
		var names []string
		for _, sp := range kids {
			names = append(names, sp.Name)
		}
		return names
	}
	got := phasesOf(func(sp *Span) {
		if _, err := SelfJoin(ds, Options{Eps: 0.1, Trace: sp}); err != nil {
			t.Fatal(err)
		}
	})
	if want := []string{"build", "probe", "collect"}; !slices.Equal(got, want) {
		t.Errorf("SelfJoin phase intervals = %v, want %v", got, want)
	}
	got = phasesOf(func(sp *Span) {
		if _, err := SelfJoinEach(ds, Options{Eps: 0.1, Trace: sp}, func(i, j int) {}); err != nil {
			t.Fatal(err)
		}
	})
	if want := []string{"build", "probe"}; !slices.Equal(got, want) {
		t.Errorf("SelfJoinEach phase intervals = %v, want %v", got, want)
	}
}

// TestEpsRejectedAtEveryEntryPoint pins the contract that a non-positive
// or non-finite Eps is rejected at every public boundary before any work
// runs.
func TestEpsRejectedAtEveryEntryPoint(t *testing.T) {
	ds := unitSquareCluster()
	noop := func(i, j int) { t.Error("callback ran despite invalid Eps") }
	for name, eps := range map[string]float64{
		"zero": 0, "negative": -1, "nan": math.NaN(),
		"+inf": math.Inf(1), "-inf": math.Inf(-1),
	} {
		opt := Options{Eps: eps}
		if _, err := SelfJoin(ds, opt); err == nil {
			t.Errorf("SelfJoin accepted %s Eps", name)
		}
		if _, err := Join(ds, ds, opt); err == nil {
			t.Errorf("Join accepted %s Eps", name)
		}
		if _, err := SelfJoinEach(ds, opt, noop); err == nil {
			t.Errorf("SelfJoinEach accepted %s Eps", name)
		}
		if _, err := JoinEach(ds, ds, opt, noop); err == nil {
			t.Errorf("JoinEach accepted %s Eps", name)
		}
	}
}

// TestJoinStatsKeys pins where the ε-kdB tree's key choice shows: on
// high-d clustered data every one-shot entry point reports pivot keys, in
// JoinStats, on its span and from Explain ahead of the run; low-d data
// and other engines report what they ran; and the pair set is the
// brute-force one whatever the keys.
func TestJoinStatsKeys(t *testing.T) {
	high, _ := Synthetic("clustered", 3000, 64, 3)
	other, _ := Synthetic("clustered", 1800, 64, 3) // same seed: same cluster centres
	low, _ := Synthetic("clustered", 1500, 4, 3)
	const eps = 0.5

	want, err := SelfJoin(high, Options{Eps: eps, Algorithm: AlgorithmBrute})
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracer(4)
	root := tr.Start("test")
	var js JoinStats
	got, err := SelfJoin(high, Options{Eps: eps, Stats: &js, Trace: root})
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	if !strings.HasPrefix(js.Keys, "pivot/") {
		t.Fatalf("SelfJoin at d=64 reported Keys = %q, want pivot keys", js.Keys)
	}
	if !slices.Equal(got.Pairs, want.Pairs) {
		t.Errorf("pivot-keyed SelfJoin: %d pairs, brute %d", len(got.Pairs), len(want.Pairs))
	}
	for _, sp := range tr.Traces()[0].Spans {
		if sp.Name == "simjoin.SelfJoin" && sp.Attr("keys") != js.Keys {
			t.Errorf("span keys = %q, JoinStats.Keys = %q", sp.Attr("keys"), js.Keys)
		}
	}
	if ex, err := Explain(high, Options{Eps: eps}); err != nil || ex.Keys != js.Keys {
		t.Errorf("Explain Keys = %q (%v), the run took %q", ex.Keys, err, js.Keys)
	}

	selfKeys := js.Keys
	if _, err := SelfJoinEach(high, Options{Eps: eps, Stats: &js}, func(i, j int) {}); err != nil || js.Keys != selfKeys {
		t.Errorf("SelfJoinEach Keys = %q (%v), want %q", js.Keys, err, selfKeys)
	}
	wantJoin, _ := Join(high, other, Options{Eps: eps, Algorithm: AlgorithmBrute})
	for _, workers := range []int{1, 3} {
		gotJoin, err := Join(high, other, Options{Eps: eps, Workers: workers, Stats: &js})
		if err != nil || !strings.HasPrefix(js.Keys, "pivot/") {
			t.Errorf("Join/w%d Keys = %q (%v), want pivot keys", workers, js.Keys, err)
		}
		if !slices.Equal(gotJoin.Pairs, wantJoin.Pairs) {
			t.Errorf("pivot-keyed Join/w%d: %d pairs, brute %d", workers, len(gotJoin.Pairs), len(wantJoin.Pairs))
		}
	}
	if ex, err := ExplainJoin(high, other, Options{Eps: eps}); err != nil || ex.Keys != js.Keys {
		t.Errorf("ExplainJoin Keys = %q (%v), the run took %q", ex.Keys, err, js.Keys)
	}
	if _, err := JoinEach(high, other, Options{Eps: eps, Stats: &js}, func(i, j int) {}); err != nil || !strings.HasPrefix(js.Keys, "pivot/") {
		t.Errorf("JoinEach Keys = %q (%v), want pivot keys", js.Keys, err)
	}

	if _, err := SelfJoin(low, Options{Eps: 0.05, Stats: &js}); err != nil || js.Keys != "raw" {
		t.Errorf("SelfJoin at d=4 Keys = %q (%v), want raw", js.Keys, err)
	}
	if _, err := SelfJoin(high, Options{Eps: eps, Algorithm: AlgorithmGrid, Stats: &js}); err != nil || js.Keys != "" {
		t.Errorf("grid Keys = %q (%v), want none", js.Keys, err)
	}
}
