// Command simjoinbench runs the repository's pinned benchmark suite and
// writes a machine-readable report, so performance is tracked the same
// way correctness is: one committed baseline, one comparison gate.
//
// The suite is fixed — self-join and two-set join, dimensionality 8 and
// 16, serial and Workers=NumCPU, collecting and streaming — over seeded
// synthetic clustered data, so every run measures the same work. Two
// live-engine cases ride along: incremental Range+Insert of a 64-point
// batch against a standing index versus a full rebuild plus re-probe.
// Two estimator cases track the resident join-size sketch: the cost of
// absorbing a 64-point batch, and the cost of one sketch-served plan.
// High-dimensional self-join cases (d32/d64) and two vec/ kernel
// microbenchmarks pin the flat distance kernels directly (see
// docs/KERNELS.md). Three pairs/sort cases time the result-pair sort
// alone, at its comparison-sort cutoff and at the result sizes of a
// served and a bulk join (see docs/ALGORITHMS.md).
//
//	simjoinbench [-quick] [-only vec/] [-out BENCH_2006-01-02.json]
//	simjoinbench -quick -baseline bench/BENCH_xxx.json [-threshold 0.2]
//	simjoinbench -compare old.json new.json [-threshold 0.2]
//
// -only restricts both the run and the gate to cases with a name prefix,
// so the kernel microbenchmarks can be gated as their own CI job.
//
// With -baseline, the freshly measured suite is compared case-by-case
// against the committed baseline and the process exits 1 when any case's
// ns/op regressed by more than the threshold. -compare applies the same
// gate to two existing reports without running anything. Compare runs
// like against like: a -quick report must be gated against a -quick
// baseline (the gate refuses otherwise).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"
	"time"

	"simjoin"
	"simjoin/internal/pairs"
	"simjoin/internal/vec"
)

// gitCommit reports the working tree's short revision, best-effort:
// outside a git checkout (or without git on PATH) it returns "" rather
// than failing the run.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// benchRepeats is how many times each case is measured; the reported
// ns/op is the fastest run.
const benchRepeats = 3

// bestOf measures bench benchRepeats times and returns the fastest run
// with its ns/op. Scheduler and frequency noise only ever slows a run
// down, so the minimum is the most reproducible estimate and keeps the
// regression gate's threshold meaningful on busy machines.
func bestOf(bench func(b *testing.B)) (testing.BenchmarkResult, float64) {
	var r testing.BenchmarkResult
	best := math.Inf(1)
	for rep := 0; rep < benchRepeats; rep++ {
		res := testing.Benchmark(bench)
		if ns := float64(res.T.Nanoseconds()) / float64(res.N); ns < best {
			best, r = ns, res
		}
	}
	return r, best
}

// timed is the part of a Case every group fills the same way.
func timed(name string, r testing.BenchmarkResult, nsPerOp float64, nPairs int64) Case {
	return Case{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     nsPerOp,
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		Pairs:       nPairs,
	}
}

// Schema identifies the report format; bump only with a migration note
// in docs/OBSERVABILITY.md.
const Schema = "simjoinbench/v1"

// Report is the file simjoinbench writes: the suite's configuration and
// one Case per pinned benchmark.
type Report struct {
	Schema string `json:"schema"`
	Date   string `json:"date"`
	Go     string `json:"go"`
	OS     string `json:"os"`
	Arch   string `json:"arch"`
	CPUs   int    `json:"cpus"`
	// Commit is the short git revision the suite ran at, when the
	// working tree is a git checkout; "" otherwise.
	Commit string `json:"commit,omitempty"`
	Quick  bool   `json:"quick"`
	Cases  []Case `json:"cases"`
}

// Case is one pinned benchmark's measurements: the timing triple from
// testing.Benchmark plus the join's own observability report.
type Case struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`

	Pairs     int64 `json:"pairs"`
	DistComps int64 `json:"dist_comps"`
	BuildNs   int64 `json:"build_ns"`
	ProbeNs   int64 `json:"probe_ns"`
	CollectNs int64 `json:"collect_ns"`
}

// spec pins one suite entry.
type spec struct {
	name    string
	dims    int
	twoSet  bool
	workers int
	stream  bool
}

// suite enumerates the pinned cases. Workers and naming are fixed here;
// sizes and ε come from sizes().
func suite() []spec {
	var out []spec
	for _, kind := range []string{"self", "join"} {
		for _, d := range []int{8, 16} {
			for _, par := range []string{"serial", "parallel"} {
				for _, mode := range []string{"collect", "stream"} {
					workers := 1
					if par == "parallel" {
						// Floor of 2 so the parallel code path runs even
						// on a single-CPU machine.
						workers = runtime.NumCPU()
						if workers < 2 {
							workers = 2
						}
					}
					out = append(out, spec{
						name:    fmt.Sprintf("%s/d%d/%s/%s", kind, d, par, mode),
						dims:    d,
						twoSet:  kind == "join",
						workers: workers,
						stream:  mode == "stream",
					})
				}
			}
		}
	}
	// High-dimensional self-join cases exercise the flat kernels where the
	// distance tests dominate.
	for _, d := range []int{32, 64} {
		for _, mode := range []string{"collect", "stream"} {
			out = append(out, spec{
				name:    fmt.Sprintf("self/d%d/serial/%s", d, mode),
				dims:    d,
				workers: 1,
				stream:  mode == "stream",
			})
		}
	}
	return out
}

// sizes returns the point counts and ε for one dimensionality. ε grows
// with √d so the selectivity — and therefore the output volume being
// measured — stays comparable across the suite.
func sizes(dims int, quick bool) (nSelf, nA, nB int, eps float64) {
	nSelf, nA, nB = 4000, 3000, 2000
	if quick {
		nSelf, nA, nB = 800, 600, 400
	}
	switch dims {
	case 16:
		eps = 0.22
	case 32:
		eps = 0.31
	case 64:
		eps = 0.44
	default:
		eps = 0.15
	}
	return
}

// run measures one spec with testing.Benchmark and returns its Case.
func run(sp spec, quick bool) (Case, error) {
	nSelf, nA, nB, eps := sizes(sp.dims, quick)
	var ds, da, db *simjoin.Dataset
	var err error
	if sp.twoSet {
		// One seed for both sides: the sets share cluster centers (two
		// samples of one distribution), so the join has real output. A
		// second seed would scatter the clusters into disjoint regions
		// and benchmark an empty join.
		if da, err = simjoin.Synthetic("clustered", nA, sp.dims, 11); err != nil {
			return Case{}, err
		}
		if db, err = simjoin.Synthetic("clustered", nB, sp.dims, 11); err != nil {
			return Case{}, err
		}
	} else {
		if ds, err = simjoin.Synthetic("clustered", nSelf, sp.dims, 10); err != nil {
			return Case{}, err
		}
	}
	var js simjoin.JoinStats
	opt := simjoin.Options{Eps: eps, Workers: sp.workers, Stats: &js}
	var runErr error
	one := func() {
		switch {
		case sp.twoSet && sp.stream:
			_, runErr = simjoin.JoinEach(da, db, opt, func(i, j int) {})
		case sp.twoSet:
			_, runErr = simjoin.Join(da, db, opt)
		case sp.stream:
			_, runErr = simjoin.SelfJoinEach(ds, opt, func(i, j int) {})
		default:
			_, runErr = simjoin.SelfJoin(ds, opt)
		}
	}
	one() // warm-up, and the JoinStats snapshot the report carries
	if runErr != nil {
		return Case{}, fmt.Errorf("%s: %w", sp.name, runErr)
	}
	snapshot := js
	if snapshot.PairsEmitted == 0 {
		return Case{}, fmt.Errorf("%s: degenerate benchmark, no pairs at eps %g", sp.name, eps)
	}
	r, best := bestOf(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			one()
		}
	})
	if runErr != nil {
		return Case{}, fmt.Errorf("%s: %w", sp.name, runErr)
	}
	c := timed(sp.name, r, best, snapshot.PairsEmitted)
	c.DistComps = snapshot.DistComps
	c.BuildNs = snapshot.BuildTime.Nanoseconds()
	c.ProbeNs = snapshot.ProbeTime.Nanoseconds()
	c.CollectNs = snapshot.CollectTime.Nanoseconds()
	return c, nil
}

// runLive measures the two maintenance strategies behind the live
// matching engine, pinned at dimensionality 8 and a 64-point batch:
//
//	live/d8/append64  — Range + Insert per appended point on a standing
//	                    index (what internal/live does on every batch)
//	live/d8/rebuild64 — rebuild the index over the grown dataset, then
//	                    re-probe the batch (what polling would cost)
//
// The delta-pair discovery work is the same in both; only the index
// maintenance differs, so the ratio is the price of NOT having the
// incremental path.
func runLive(quick bool) ([]Case, error) {
	const dims, appendN = 8, 64
	n, _, _, eps := sizes(dims, quick)
	full, err := simjoin.Synthetic("clustered", n, dims, 12)
	if err != nil {
		return nil, err
	}
	base := simjoin.NewDataset(dims)
	for i := 0; i < n-appendN; i++ {
		base.Append(full.Point(i))
	}
	tail := make([][]float64, appendN)
	for i := range tail {
		tail[i] = full.Point(n - appendN + i)
	}

	var runErr error
	var pairsSeen int64
	probe := func(idx *simjoin.Index, insert bool) {
		for _, p := range tail {
			hits, err := idx.Range(p, simjoin.L2, eps)
			if err != nil {
				runErr = err
				return
			}
			pairsSeen += int64(len(hits))
			if insert {
				if _, err := idx.Insert(p); err != nil {
					runErr = err
					return
				}
			}
		}
	}
	seed := func() *simjoin.Index {
		idx, err := simjoin.NewIndex(base.CloneWithCap(appendN), eps, simjoin.Options{})
		if err != nil {
			runErr = err
		}
		return idx
	}

	benches := []struct {
		name  string
		bench func(b *testing.B)
	}{
		{"live/d8/append64", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				idx := seed()
				if runErr != nil {
					return
				}
				b.StartTimer()
				probe(idx, true)
			}
		}},
		{"live/d8/rebuild64", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				idx, err := simjoin.NewIndex(full, eps, simjoin.Options{})
				if err != nil {
					runErr = err
					return
				}
				probe(idx, false)
			}
		}},
	}
	var out []Case
	for _, bc := range benches {
		// One untimed pass for the per-op pair count the report carries.
		pairsSeen = 0
		if bc.name == "live/d8/append64" {
			probe(seed(), true)
		} else {
			idx, err := simjoin.NewIndex(full, eps, simjoin.Options{})
			if err != nil {
				return nil, err
			}
			probe(idx, false)
		}
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", bc.name, runErr)
		}
		snapshot := pairsSeen
		if snapshot == 0 {
			return nil, fmt.Errorf("%s: degenerate benchmark, no pairs at eps %g", bc.name, eps)
		}
		r, best := bestOf(bc.bench)
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", bc.name, runErr)
		}
		out = append(out, timed(bc.name, r, best, snapshot))
	}
	return out, nil
}

// runEstimate measures the sketch-based planner, pinned at
// dimensionality 8:
//
//	estimate/sketch-update — absorb a 64-point batch into a sketch
//	                         already warmed with the full dataset (what
//	                         every append pays to keep estimates fresh)
//	estimate/choose        — PlanSelfJoin on the sketched dataset: the
//	                         planner's O(reservoir) fast path, no raw
//	                         point ever touched
func runEstimate(quick bool) ([]Case, error) {
	const dims, batch = 8, 64
	n, _, _, eps := sizes(dims, quick)
	full, err := simjoin.Synthetic("clustered", n, dims, 13)
	if err != nil {
		return nil, err
	}
	tail := make([][]float64, batch)
	for i := range tail {
		tail[i] = full.Point(n - batch + i)
	}
	sk := full.EnableSketch()
	pl := simjoin.PlanSelfJoin(full, simjoin.L2, eps)
	if !pl.Sketched || pl.EstimatedPairs <= 0 {
		return nil, fmt.Errorf("estimate/choose: degenerate benchmark, sketch predicts %d pairs at eps %g", pl.EstimatedPairs, eps)
	}
	var sink int64
	benches := []struct {
		name  string
		bench func(b *testing.B)
	}{
		{"estimate/sketch-update", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, p := range tail {
					sk.Observe(p)
				}
			}
		}},
		{"estimate/choose", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := simjoin.PlanSelfJoin(full, simjoin.L2, eps)
				sink += p.EstimatedPairs
			}
		}},
	}
	var out []Case
	for _, bc := range benches {
		r, best := bestOf(bc.bench)
		// Pairs carries the sketch's prediction for the suite's workload,
		// so reports also track estimator drift.
		out = append(out, timed(bc.name, r, best, pl.EstimatedPairs))
	}
	_ = sink
	return out, nil
}

// runVec measures the flat distance kernels in isolation, pinned at
// dimensionality 32 over clustered data, so a kernel-level regression
// fails the gate even when the end-to-end cases absorb it:
//
//	vec/l2-flat       — full-accumulation L2 probes (threshold ∞): raw
//	                    kernel throughput, no early exit ever taken
//	vec/l2-early-exit — the same probes at the suite's d32 ε: the
//	                    partial-distance early exit fires on nearly every
//	                    candidate
func runVec(quick bool) ([]Case, error) {
	const dims = 32
	n := 1200
	if quick {
		n = 600
	}
	ds, err := simjoin.Synthetic("clustered", n, dims, 14)
	if err != nil {
		return nil, err
	}
	f := ds.Internal().FlatView()
	benches := []struct {
		name string
		th   float64
	}{
		{"vec/l2-flat", math.Inf(1)},
		{"vec/l2-early-exit", vec.Threshold(vec.L2, 0.31)},
	}
	var out []Case
	for _, bc := range benches {
		var pairs int64
		one := func() {
			var res int64
			for i := 0; i < n; i++ {
				_, r := vec.ProbeRangeFlat(vec.L2, f, int32(i), f, 0, n, bc.th, func(int32) {})
				res += r
			}
			pairs = res
		}
		one()
		if pairs == 0 {
			return nil, fmt.Errorf("%s: degenerate benchmark, no pairs", bc.name)
		}
		r, best := bestOf(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				one()
			}
		})
		out = append(out, timed(bc.name, r, best, pairs))
	}
	return out, nil
}

// runPairsSort measures pairs.SortPairs alone — the last step of every
// collecting join — over seeded canonical pairs on n = 12 000 points,
// unsorted as the engines emit them. These cases are the measurement
// behind the sort's two constants (its comparison-sort cutoff and its
// digit width):
//
//	pairs/sort/64   — the cutoff itself: the shortest input that takes
//	                  the radix path
//	pairs/sort/2k   — a served join's result (benchmark/ serve_query)
//	pairs/sort/250k — a bulk join's result (benchmark/ join_pairs)
//
// The timed op includes refilling the slice from the unsorted master.
func runPairsSort(bool) ([]Case, error) {
	const points = 12000
	var out []Case
	for _, sz := range []struct {
		name string
		n    int
	}{{"64", 64}, {"2k", 2000}, {"250k", 250000}} {
		rng := rand.New(rand.NewSource(15))
		master := make([]pairs.Pair, sz.n)
		for i := range master {
			master[i] = pairs.Pair{I: int32(rng.Intn(points)), J: int32(rng.Intn(points))}.Canon()
		}
		ps := make([]pairs.Pair, sz.n)
		r, best := bestOf(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(ps, master)
				pairs.SortPairs(ps)
			}
		})
		out = append(out, timed("pairs/sort/"+sz.name, r, best, int64(sz.n)))
	}
	return out, nil
}

// compare gates next against base: any case whose ns/op grew by more
// than threshold (fraction, e.g. 0.2 = +20%) is a regression. only, when
// non-empty, restricts the gate to cases with that name prefix — on BOTH
// sides, so a filtered run is not failed for the baseline cases it never
// measured. It returns the number of regressions after printing a
// per-case table.
func compare(base, next *Report, threshold float64, only string) int {
	if base.Quick != next.Quick {
		fmt.Fprintf(os.Stderr, "simjoinbench: refusing to compare quick=%v against quick=%v — rerun with matching modes\n", next.Quick, base.Quick)
		return 1
	}
	baseBy := make(map[string]Case, len(base.Cases))
	for _, c := range base.Cases {
		if strings.HasPrefix(c.Name, only) {
			baseBy[c.Name] = c
		}
	}
	regressions := 0
	for _, c := range next.Cases {
		if !strings.HasPrefix(c.Name, only) {
			continue
		}
		b, ok := baseBy[c.Name]
		if !ok {
			fmt.Printf("%-28s NEW        %12.0f ns/op\n", c.Name, c.NsPerOp)
			continue
		}
		ratio := c.NsPerOp / b.NsPerOp
		verdict := "ok"
		if ratio > 1+threshold {
			verdict = "REGRESSION"
			regressions++
		}
		fmt.Printf("%-28s %-10s %12.0f → %12.0f ns/op  (%+.1f%%)\n",
			c.Name, verdict, b.NsPerOp, c.NsPerOp, (ratio-1)*100)
		delete(baseBy, c.Name)
	}
	for name := range baseBy {
		fmt.Printf("%-28s MISSING — baseline case not measured\n", name)
		regressions++
	}
	return regressions
}

func readReport(path string) (*Report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != Schema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, Schema)
	}
	return &r, nil
}

func main() {
	var (
		quick     = flag.Bool("quick", false, "small inputs for CI: same suite, ~10x faster")
		out       = flag.String("out", "", "write the JSON report here (default BENCH_<date>.json; \"-\" for stdout)")
		baseline  = flag.String("baseline", "", "compare the fresh run against this report and exit 1 on regression")
		threshold = flag.Float64("threshold", 0.20, "allowed ns/op growth before a case counts as regressed")
		comp      = flag.Bool("compare", false, "compare two existing reports (old new) instead of running")
		only      = flag.String("only", "", "run (and gate) only cases whose name has this prefix, e.g. vec/")
	)
	flag.Parse()

	if *comp {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "simjoinbench: -compare wants exactly two report paths (old new)")
			os.Exit(2)
		}
		old, err := readReport(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "simjoinbench:", err)
			os.Exit(2)
		}
		next, err := readReport(flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "simjoinbench:", err)
			os.Exit(2)
		}
		if n := compare(old, next, *threshold, *only); n > 0 {
			fmt.Fprintf(os.Stderr, "simjoinbench: %d regression(s) beyond +%.0f%%\n", n, *threshold*100)
			os.Exit(1)
		}
		return
	}

	// wanted reports whether a case name passes the -only filter;
	// groupWanted whether a whole group (by its name prefix) can contain a
	// passing case, so filtered runs skip the work entirely.
	wanted := func(name string) bool { return strings.HasPrefix(name, *only) }
	groupWanted := func(prefix string) bool {
		return *only == "" || strings.HasPrefix(prefix, *only) || strings.HasPrefix(*only, prefix)
	}

	report := &Report{
		Schema: Schema,
		Date:   time.Now().UTC().Format(time.RFC3339),
		Go:     runtime.Version(),
		OS:     runtime.GOOS,
		Arch:   runtime.GOARCH,
		CPUs:   runtime.NumCPU(),
		Commit: gitCommit(),
		Quick:  *quick,
	}
	add := func(c Case) {
		if !wanted(c.Name) {
			return
		}
		fmt.Printf("%-28s %12.0f ns/op  %8d allocs/op  %10d pairs\n", c.Name, c.NsPerOp, c.AllocsPerOp, c.Pairs)
		report.Cases = append(report.Cases, c)
	}
	for _, sp := range suite() {
		if !wanted(sp.name) {
			continue
		}
		c, err := run(sp, *quick)
		if err != nil {
			fmt.Fprintln(os.Stderr, "simjoinbench:", err)
			os.Exit(2)
		}
		add(c)
	}
	groups := []struct {
		prefix string
		run    func(bool) ([]Case, error)
	}{
		{"live/", runLive},
		{"estimate/", runEstimate},
		{"vec/", runVec},
		{"pairs/", runPairsSort},
	}
	for _, g := range groups {
		if !groupWanted(g.prefix) {
			continue
		}
		cases, err := g.run(*quick)
		if err != nil {
			fmt.Fprintln(os.Stderr, "simjoinbench:", err)
			os.Exit(2)
		}
		for _, c := range cases {
			add(c)
		}
	}

	path := *out
	if path == "" {
		path = "BENCH_" + time.Now().UTC().Format("2006-01-02") + ".json"
	}
	raw, _ := json.MarshalIndent(report, "", "  ")
	raw = append(raw, '\n')
	if path == "-" {
		os.Stdout.Write(raw)
	} else if err := os.WriteFile(path, raw, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "simjoinbench:", err)
		os.Exit(2)
	} else {
		fmt.Println("wrote", path)
	}

	if *baseline != "" {
		base, err := readReport(*baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "simjoinbench:", err)
			os.Exit(2)
		}
		if n := compare(base, report, *threshold, *only); n > 0 {
			fmt.Fprintf(os.Stderr, "simjoinbench: %d regression(s) beyond +%.0f%%\n", n, *threshold*100)
			os.Exit(1)
		}
	}
}
