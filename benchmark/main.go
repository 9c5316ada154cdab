// Command benchmark is the repo's benchmark: four workloads from the
// distance kernel to the gateway, each reporting the same end-to-end
// metrics (untraced run) or the per-layer metrics (traced run), with every
// answer checked. See README.md; BENCHMARK.json at the repo root is the
// contract the numbers are read under.
//
//	bash benchmark/run.sh --workload join_pairs --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// runConfig is one run's settings, shared by every workload.
type runConfig struct {
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	simjoind string    // daemon binary, for the serve_* workloads
	work     string    // this run's scratch directory, removed on exit
	rec      *recorder // nil unless trace
}

// duration is share of the run's measuring time.
func (c runConfig) duration(share float64) time.Duration {
	return time.Duration(c.seconds * share * float64(time.Second))
}

// sliceReps is how many times the untraced run sets the system up afresh.
// Each set-up is timed — setup_s is their median — and followed by an equal
// slice of the measuring time, and the slices' samples are pooled: fresh
// processes and fresh allocations per slice turn what would be run-to-run
// differences (memory layout, which core a process lands on) into spread
// within one run, which medians shrug off.
const sliceReps = 5

// slices is how many set-ups the run makes, and slice each one's share of
// the measuring time. The traced run reports neither setup_s nor bounded
// metrics, so it sets up once.
func (c runConfig) slices() (reps int, slice time.Duration) {
	if c.trace {
		return 1, c.duration(0.5)
	}
	return sliceReps, c.duration(1.0 / sliceReps)
}

// traceBlock is how many consecutive ops of a connection share a tracing
// state. A traced run traces every other block, so one phase yields traced
// and untraced latencies of the same schedule; 20 ops hold every dataset
// and both op kinds of the in-process workloads equally often.
const traceBlock = 20

// recFor is the recorder the k-th op of a connection runs under.
func (c runConfig) recFor(k int) *recorder {
	if k/traceBlock%2 == 1 {
		return nil
	}
	return c.rec
}

// hardStop ends a run that would outlive the 180 s a run may take.
const hardStop = 170 * time.Second

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloads, ", "))
		seed     = flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 25, "measuring time")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics and a span file")
		spans    = flag.String("spans", "", "where the traced run writes its spans (default <work>/spans-<workload>.json)")
		smoke    = flag.Bool("smoke", false, "tiny sizes: a wiring check, not a measurement")
		simjoind = flag.String("simjoind", "", "path of the built cmd/simjoind binary (serve_* workloads)")
		work     = flag.String("work", ".bench_build", "directory for everything the run writes")
		repeat   = flag.Int("repeat", 0, "run the workload (or all, when none is named) N times, seeds seed..seed+N-1, one JSON file per run under -out")
		out      = flag.String("out", "", "directory -repeat writes to")
		compare  = flag.Bool("compare", false, "compare two -repeat directories given as arguments; exit 1 if any end-to-end metric regressed past its bound")
	)
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatalf("-compare takes two directories")
		}
		ok, err := compareSets(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatalf("%v", err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	case *repeat > 0:
		if *out == "" {
			fatalf("-repeat needs -out")
		}
		settings := []string{"-seconds", fmt.Sprint(*seconds), "-simjoind", *simjoind, "-work", *work, fmt.Sprintf("-smoke=%t", *smoke)}
		if err := repeatRuns(*workload, *seed, *repeat, *out, settings); err != nil {
			fatalf("%v", err)
		}
		return
	}

	run, ok := runners[*workload]
	if !ok {
		fatalf("unknown -workload %q (have %s)", *workload, strings.Join(workloads, ", "))
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fatalf("%v", err)
	}
	tmp, err := os.MkdirTemp(*work, "run-")
	if err != nil {
		fatalf("%v", err)
	}
	tmp, err = filepath.Abs(tmp)
	if err != nil {
		fatalf("%v", err)
	}
	onExit(func() { os.RemoveAll(tmp) })
	go exitOnSignal()
	time.AfterFunc(hardStop, func() { fatalf("run exceeded %v", hardStop) })

	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace != 0, smoke: *smoke, simjoind: *simjoind, work: tmp}
	if cfg.trace {
		cfg.rec = newRecorder()
	}
	fmt.Println(stamp(*workload, cfg))
	res, err := run(cfg, *workload)
	if err != nil {
		fatalf("%s: %v", *workload, err)
	}
	if cfg.trace {
		path := *spans
		if path == "" {
			path = filepath.Join(*work, "spans-"+*workload+".json")
		}
		if err := cfg.rec.write(path); err != nil {
			fatalf("writing spans: %v", err)
		}
		all := cfg.rec.snapshot()
		res.values["diag.spans"] = float64(len(all))
		fmt.Printf("# %d spans written to %s; self time by span name:\n", len(all), path)
		self := selfTimes(all)
		for _, name := range sortedKeys(self) {
			fmt.Printf("#   %-28s %10.1f ms\n", name, ms(self[name]))
		}
	}
	line, correct := report(os.Stdout, res, cfg.trace)
	cleanup()
	fmt.Println(line)
	if !correct {
		os.Exit(1)
	}
}

var runners = map[string]func(runConfig, string) (*outcome, error){
	"join_pairs":   runJoin,
	"join_highdim": runJoin,
	"serve_query":  runServeQuery,
	"serve_ingest": runServeIngest,
}

// result is the run's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints every metric of the run's kind by name and unit and
// returns the result line. A metric the run did not measure reads 0.
func report(w io.Writer, o *outcome, traced bool) (line string, correct bool) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	res := result{Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	res.Correct = o.failed == 0 && o.attempted > 0
	for _, d := range defs {
		v := o.values[d.Name]
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Fprintf(w, "%-32s %14.6g %s\n", d.Name, v, d.Unit)
	}
	for _, n := range o.notes {
		fmt.Fprintf(w, "# FAILED: %s\n", n)
	}
	data, err := json.Marshal(res)
	if err != nil {
		fatalf("%v", err)
	}
	return string(data), res.Correct
}

// stamp says where the numbers came from: a baseline taken on one CPU, or
// by another toolchain, must be recognisable as such.
func stamp(workload string, cfg runConfig) string {
	return fmt.Sprintf("# workload=%s seed=%d seconds=%g trace=%t smoke=%t nproc=%d gomaxprocs=%d go=%s commit=%s",
		workload, cfg.seed, cfg.seconds, cfg.trace, cfg.smoke, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())
}

// commit names the checkout when it is a git repository.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// Exit paths. Whatever ends the run — success, a failed check, an error,
// SIGINT, the hard stop — runs the registered clean-ups first, so no
// simjoind process and no scratch directory outlives it.
var (
	exitMu   sync.Mutex
	cleanups []func()
)

func onExit(f func()) {
	exitMu.Lock()
	cleanups = append(cleanups, f)
	exitMu.Unlock()
}

func cleanup() {
	exitMu.Lock()
	defer exitMu.Unlock()
	for i := len(cleanups) - 1; i >= 0; i-- {
		cleanups[i]()
	}
	cleanups = nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	cleanup()
	os.Exit(1)
}

func exitOnSignal() {
	c := make(chan os.Signal, 1)
	signal.Notify(c, os.Interrupt, syscall.SIGTERM)
	s := <-c
	fatalf("stopped by %v", s)
}

// selfHWM is this process's peak resident set in MB, since the last
// resetSelfHWM if that worked.
func selfHWM() float64 { return hwmMB(os.Getpid()) }

// resetSelfHWM asks the kernel to restart this process's peak-RSS
// watermark from its current RSS, so that every slice of an in-process
// workload reports a peak of its own. Where the kernel refuses, every
// slice reports the process-wide peak instead.
func resetSelfHWM() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// hwmMB reads VmHWM, the peak resident set, of a live process.
func hwmMB(pid int) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscan(rest, &kb)
			return kb / 1024
		}
	}
	return 0
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
