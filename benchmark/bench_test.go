package main

import (
	"encoding/json"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestPercentileIsNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {91, 10}, {100, 10}, {1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
}

// The highest percentile reported must have at least ten samples beyond it.
func TestHighestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{30, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// An op stands for the low end of its repeats, whatever stalls the others
// met, and an op with too few repeats for a low end is left out.
func TestUndisturbedTakesTheLowEndOfEachOpsRepeats(t *testing.T) {
	var keys []int
	var ms latencies
	for rep := 0; rep < 20; rep++ {
		for op, own := range []float64{5, 7} {
			stall := 0.0
			if rep >= 4 { // most repeats are stalled, by differing amounts
				stall = float64(10 * rep)
			}
			keys = append(keys, op)
			ms = append(ms, own+float64(rep)/100+stall)
		}
	}
	keys, ms = append(keys, 2, 2), append(ms, 1, 1) // 2 repeats against 20
	got := sortedCopy(undisturbed(keys, ms))
	want := []float64{5.01, 7.01} // the 2nd fastest of 20
	if !reflect.DeepEqual(got, want) {
		t.Errorf("undisturbed = %v, want %v", got, want)
	}
	if got := undisturbed([]int{1, 1, 1}, latencies{9, 3, 4}); !reflect.DeepEqual(got, []float64{3}) {
		t.Errorf("with ten repeats or fewer the fastest stands for the op: got %v", got)
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "op", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "b", Start: 20, End: 50},  // overlaps a: 10..50 counts once
		{ID: 3, Parent: 0, Name: "c", Start: 90, End: 120}, // runs past its parent: clipped at 100
		{ID: 4, Parent: 2, Name: "leaf", Start: 25, End: 35},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"op": 50, "a": 20, "b": 20, "c": 30, "leaf": 10}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestRecorderNilRecordsNothing(t *testing.T) {
	var r *recorder
	id := r.start("x", -1, 0)
	r.end(id)
	if id != -1 || r.snapshot() != nil {
		t.Errorf("nil recorder recorded: id %d, spans %v", id, r.snapshot())
	}
}

func TestPairSumIgnoresOrderAndOrientation(t *testing.T) {
	var a, b, c pairSum
	a.addSelf(1, 2)
	a.addSelf(7, 3)
	b.addSelf(3, 7)
	b.addSelf(2, 1)
	if a != b {
		t.Errorf("same pair set, different sums: %+v vs %+v", a, b)
	}
	c.addSelf(1, 2)
	c.addSelf(3, 8)
	if a == c {
		t.Errorf("different pair sets, same sum %+v", a)
	}
	var d, e pairSum
	d.add(1, 2)
	e.add(2, 1)
	if d == e {
		t.Error("two-set pairs (1,2) and (2,1) must differ")
	}
}

func TestGeneratorIsSeeded(t *testing.T) {
	gen := func(seed int64) [][]float64 {
		r := rand.New(rand.NewSource(seed))
		return newBlobs(r, 8).points(r, 50)
	}
	if !reflect.DeepEqual(gen(5), gen(5)) {
		t.Error("same seed, different points")
	}
	if reflect.DeepEqual(gen(5), gen(6)) {
		t.Error("different seeds, same points")
	}
	for _, p := range gen(5) {
		for _, x := range p {
			if x < 0 || x > 1 {
				t.Fatalf("coordinate %v outside the unit cube", x)
			}
		}
	}
}

// benchmarkJSON is the part of ../BENCHMARK.json the harness must agree
// with.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkJSONMatchesTheHarness(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end drifted:\n json %+v\n code %+v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer drifted:\n json %+v\n code %+v", b.PerLayer, perLayer)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if _, ok := runners[w.Name]; !ok {
			t.Errorf("workload %q has no runner", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("workloads drifted: json %v, code %v", names, workloads)
	}
}

func TestMetricNamesAndUnits(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	var hasSetup bool
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !name.MatchString(d.Name) {
			t.Errorf("metric name %q outside the charset", d.Name)
		}
		if !unit.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q outside the charset", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better = %q", d.Name, d.Better)
		}
		if seen[d.Name] {
			t.Errorf("metric %s listed twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, d := range endToEnd {
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
}

// A -smoke run of the in-process workloads must print exactly the metric
// names BENCHMARK.json promises, untraced and traced, and pass its own
// answer checks.
func TestSmokeRunEmitsTheListedMetrics(t *testing.T) {
	b := loadBenchmarkJSON(t)
	for _, name := range []string{"join_pairs", "join_highdim"} {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{seed: 3, seconds: 0.5, smoke: true, trace: traced}
			defs := b.EndToEnd
			if traced {
				cfg.rec = newRecorder()
				defs = b.PerLayer
			}
			out, err := runJoin(cfg, name)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			line, correct := report(io.Discard, out, traced)
			if !correct {
				t.Errorf("%s traced=%t: not correct: %v", name, traced, out.notes)
			}
			var res struct {
				Correct   *bool                  `json:"correct"`
				Attempted *int64                 `json:"attempted"`
				Failed    *int64                 `json:"failed"`
				Metrics   map[string]metricValue `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(line))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&res); err != nil {
				t.Fatalf("%s: result line: %v", name, err)
			}
			if res.Correct == nil || res.Attempted == nil || res.Failed == nil || *res.Attempted < 1 {
				t.Errorf("%s: result line lacks correct/attempted/failed: %s", name, line)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%t: %d metrics printed, %d listed", name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s traced=%t: metric %s: printed %+v (present %t), listed unit %s", name, traced, d.Name, m, ok, d.Unit)
				}
				if !traced && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", name, d.Name, m.Value)
				}
			}
			if traced && len(cfg.rec.snapshot()) == 0 {
				t.Errorf("%s: traced run recorded no spans", name)
			}
		}
	}
}

func TestCompareSets(t *testing.T) {
	write := func(dir string, p50 float64, failed int64) {
		for k := 1; k <= 3; k++ {
			rf := runFile{Workload: "join_pairs", Seed: int64(k), Result: result{Correct: failed == 0, Attempted: 10, Failed: failed, Metrics: map[string]metricValue{}}}
			for _, d := range endToEnd {
				rf.Result.Metrics[d.Name] = metricValue{Value: 100, Unit: d.Unit}
			}
			rf.Result.Metrics["op_p50_ms"] = metricValue{Value: p50 + float64(k), Unit: "ms"}
			data, _ := json.Marshal(rf)
			if err := os.WriteFile(filepath.Join(dir, "join_pairs."+string(rune('0'+k))+".json"), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	base, same, slow, wrong := t.TempDir(), t.TempDir(), t.TempDir(), t.TempDir()
	write(base, 100, 0)
	write(same, 105, 0)
	write(slow, 140, 0)
	write(wrong, 90, 1)
	for _, c := range []struct {
		dir  string
		pass bool
	}{{same, true}, {slow, false}, {wrong, false}} {
		pass, err := compareSets(io.Discard, base, c.dir)
		if err != nil {
			t.Fatal(err)
		}
		if pass != c.pass {
			t.Errorf("compare against %s: pass = %t, want %t", c.dir, pass, c.pass)
		}
	}
}
