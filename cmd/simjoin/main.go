// Command simjoin runs a similarity join over CSV or binary point files.
//
// Self-join:
//
//	simjoin -in points.csv -eps 0.1
//
// Two-set join:
//
//	simjoin -in a.csv -with b.csv -eps 0.1 -algo rtree -metric L1
//
// k-nearest-neighbor join (every -in point to its k nearest -with points):
//
//	simjoin -in a.csv -with b.csv -knn 5
//
// EXPLAIN — what would run and the predicted result size, no execution:
//
//	simjoin -in points.csv -eps 0.1 -algo auto -explain
//
// Output is one "i,j,dist" row per matching pair (suppress with -count).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"simjoin"
)

func main() {
	var (
		inPath   = flag.String("in", "", "input point file (.csv or binary); required")
		withPath = flag.String("with", "", "second point file for a two-set join (optional)")
		eps      = flag.Float64("eps", 0, "similarity threshold ε (required, > 0)")
		metric   = flag.String("metric", "L2", "distance metric: L2, L1 or Linf")
		algo     = flag.String("algo", string(simjoin.AlgorithmEKDB), algoUsage())
		workers  = flag.Int("workers", 1, "parallel workers (ekdb/grid/kdtree joins and self-joins; KNN joins)")
		count    = flag.Bool("count", false, "print only the pair count and statistics")
		stream   = flag.Bool("stream", false, "print pairs as they are found instead of buffering the result set (memory stays flat)")
		quiet    = flag.Bool("quiet", false, "suppress the statistics footer on stderr")
		tracing  = flag.Bool("trace", false, "record a trace of the run and print its span tree on stderr")
		knn      = flag.Int("knn", 0, "k-nearest-neighbor join instead of an ε-join (requires -with; ignores -eps)")
		explain  = flag.Bool("explain", false, "print the plan — resolved algorithm and predicted result size — without running the join")
	)
	flag.Parse()
	if *explain {
		if err := runExplain(*inPath, *withPath, *eps, *metric, *algo, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "simjoin:", err)
			os.Exit(1)
		}
		return
	}
	if *knn > 0 {
		if err := runKNN(*inPath, *withPath, *knn, *metric, *workers, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "simjoin:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*inPath, *withPath, *eps, *metric, *algo, *workers, *count, *stream, *quiet, *tracing, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "simjoin:", err)
		os.Exit(1)
	}
}

// algoUsage is the -algo help: every algorithm the library has, then auto.
func algoUsage() string {
	names := make([]string, 0, len(simjoin.Algorithms()))
	for _, a := range simjoin.Algorithms() {
		names = append(names, string(a))
	}
	return "join algorithm: " + strings.Join(names, ", ") + " or " + string(simjoin.AlgorithmAuto)
}

func run(inPath, withPath string, eps float64, metric, algo string, workers int, countOnly, stream, quiet, tracing bool, stdout, stderr io.Writer) error {
	if inPath == "" {
		return fmt.Errorf("-in is required")
	}
	if countOnly && stream {
		return fmt.Errorf("-count and -stream are mutually exclusive")
	}
	m, err := simjoin.ParseMetric(metric)
	if err != nil {
		return err
	}
	a, err := simjoin.Load(inPath)
	if err != nil {
		return fmt.Errorf("loading %s: %w", inPath, err)
	}
	opt := simjoin.Options{
		Eps:       eps,
		Metric:    m,
		Algorithm: simjoin.Algorithm(algo),
		Workers:   workers,
	}
	if countOnly {
		off := false
		opt.CollectPairs = &off
	}
	var tracer *simjoin.Tracer
	if tracing {
		tracer = simjoin.NewTracer(1)
		root := tracer.Start("simjoin.run")
		opt.Trace = root
		defer func() {
			root.End()
			printTrace(stderr, tracer)
		}()
	}
	var b *simjoin.Dataset
	if withPath != "" {
		b, err = simjoin.Load(withPath)
		if err != nil {
			return fmt.Errorf("loading %s: %w", withPath, err)
		}
		if b.Dims() != a.Dims() {
			return fmt.Errorf("dimensionality mismatch: %d vs %d", a.Dims(), b.Dims())
		}
	}
	second := a
	if b != nil {
		second = b
	}

	out := bufio.NewWriter(stdout)
	defer out.Flush()

	var s simjoin.JoinStats
	if stream {
		// Pairs print the moment the join finds them; nothing buffers.
		emit := func(i, j int) {
			fmt.Fprintf(out, "%d,%d,%g\n", i, j, dist(m, a.Point(i), second.Point(j)))
		}
		if b == nil {
			s, err = simjoin.SelfJoinEach(a, opt, emit)
		} else {
			s, err = simjoin.JoinEach(a, b, opt, emit)
		}
		if err != nil {
			return err
		}
	} else {
		var res *simjoin.Result
		if b == nil {
			res, err = simjoin.SelfJoin(a, opt)
		} else {
			res, err = simjoin.Join(a, b, opt)
		}
		if err != nil {
			return err
		}
		s = res.Stats
		if countOnly {
			fmt.Fprintf(out, "%d\n", s.PairsEmitted)
		} else {
			for _, p := range res.Pairs {
				fmt.Fprintf(out, "%d,%d,%g\n", p.I, p.J, dist(m, a.Point(p.I), second.Point(p.J)))
			}
		}
	}
	if !quiet {
		fmt.Fprintf(stderr, "pairs=%d candidates=%d distcomps=%d nodevisits=%d elapsed=%s\n",
			s.PairsEmitted, s.Candidates, s.DistComps, s.NodeVisits, s.Elapsed)
	}
	return nil
}

// runExplain handles -explain: the library's EXPLAIN report — requested
// vs resolved algorithm and the planner's size prediction — printed as
// key=value lines, without executing the join.
func runExplain(inPath, withPath string, eps float64, metric, algo string, stdout io.Writer) error {
	if inPath == "" {
		return fmt.Errorf("-in is required")
	}
	m, err := simjoin.ParseMetric(metric)
	if err != nil {
		return err
	}
	a, err := simjoin.Load(inPath)
	if err != nil {
		return fmt.Errorf("loading %s: %w", inPath, err)
	}
	opt := simjoin.Options{Eps: eps, Metric: m, Algorithm: simjoin.Algorithm(algo)}
	var ex simjoin.Explanation
	if withPath != "" {
		b, err := simjoin.Load(withPath)
		if err != nil {
			return fmt.Errorf("loading %s: %w", withPath, err)
		}
		ex, err = simjoin.ExplainJoin(a, b, opt)
		if err != nil {
			return err
		}
	} else {
		ex, err = simjoin.Explain(a, opt)
		if err != nil {
			return err
		}
	}
	fmt.Fprintf(stdout, "eps=%g metric=%s requested=%s algorithm=%s keys=%s estimated_pairs=%d selectivity=%g\n",
		ex.Eps, ex.Metric, ex.Requested, ex.Algorithm, ex.Keys, ex.Plan.EstimatedPairs, ex.Plan.Selectivity)
	return nil
}

// runKNN handles -knn: every -in point mapped to its k nearest -with
// points, one "i,j,dist" row per neighbor in ascending distance order.
func runKNN(inPath, withPath string, k int, metric string, workers int, stdout io.Writer) error {
	if inPath == "" || withPath == "" {
		return fmt.Errorf("-knn requires both -in and -with")
	}
	m, err := simjoin.ParseMetric(metric)
	if err != nil {
		return err
	}
	a, err := simjoin.Load(inPath)
	if err != nil {
		return fmt.Errorf("loading %s: %w", inPath, err)
	}
	b, err := simjoin.Load(withPath)
	if err != nil {
		return fmt.Errorf("loading %s: %w", withPath, err)
	}
	rows, err := simjoin.KNNJoin(a, b, k, workers, m)
	if err != nil {
		return err
	}
	out := bufio.NewWriter(stdout)
	defer out.Flush()
	for i, row := range rows {
		for _, n := range row {
			fmt.Fprintf(out, "%d,%d,%g\n", i, n.Index, n.Dist)
		}
	}
	return nil
}

// dist recomputes the pair distance for output (the library reports only
// membership).
func dist(m simjoin.Metric, a, b []float64) float64 {
	switch m {
	case simjoin.L1:
		var s float64
		for i := range a {
			s += math.Abs(a[i] - b[i])
		}
		return s
	case simjoin.Linf:
		var s float64
		for i := range a {
			if d := math.Abs(a[i] - b[i]); d > s {
				s = d
			}
		}
		return s
	default:
		var s float64
		for i := range a {
			d := a[i] - b[i]
			s += d * d
		}
		return math.Sqrt(s)
	}
}
