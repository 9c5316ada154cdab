package bench

import (
	"strconv"
	"strings"
	"testing"

	"simjoin/internal/stats"
	"simjoin/internal/vec"
)

// TestAllExperimentsQuick runs the complete reproduction suite at quick
// scale: every table must materialize with plausible rows (this is also
// what keeps cmd/repro from rotting), and the tables whose argument rests
// on deterministic counters must show the shape EXPERIMENTS.md claims.
func TestAllExperimentsQuick(t *testing.T) {
	for _, ex := range append(All(), Extensions()...) {
		ex := ex
		t.Run(ex.ID, func(t *testing.T) {
			tb := ex.Run(true)
			if len(tb.Rows) == 0 {
				t.Fatalf("%s: empty table", ex.ID)
			}
			if len(tb.Headers) < 2 {
				t.Fatalf("%s: degenerate headers %v", ex.ID, tb.Headers)
			}
			out := tb.String()
			if !strings.Contains(out, tb.Headers[0]) {
				t.Fatalf("%s: render lost headers", ex.ID)
			}
			if check := counterShapes[ex.ID]; check != nil {
				check(t, tb)
			}
		})
	}
}

// counterShapes are the paper's claims that can be read off counters —
// candidates, page I/O, pair counts — which are the same on every run and
// every host. Shapes read off wall time (F1's growth exponents, who wins
// F2/F3/F6) are not here: no time-based assertion belongs in tier-1.
var counterShapes = map[string]func(*testing.T, *stats.Table){
	// Bigger leaves are a coarser filter: the sweep inside a leaf sees
	// every pair the finer striping would have pruned.
	"f4": func(t *testing.T, tb *stats.Table) {
		monotone(t, tb, "candidates", +1)
	},
	// ε-kdB examines fewer candidates per result than every tree and the
	// space-filling curve at every d. The grid is NOT asserted: at quick
	// scale, d = 10, it reads 26.0 candidates per result against ε-kdB's
	// 34.4 (ROADMAP item 3, filter power, is the work that must move it).
	"f5": func(t *testing.T, tb *stats.Table) {
		ekdb := column(t, tb, "ekdb_ratio")
		for _, other := range []string{"kdtree_ratio", "rtree_ratio", "rplus_ratio", "zorder_ratio"} {
			for i, v := range column(t, tb, other) {
				if ekdb[i] >= v {
					t.Errorf("row %d (d=%s): ekdb_ratio %g not below %s %g", i, tb.Rows[i][0], ekdb[i], other, v)
				}
			}
		}
	},
	// The external ε-kdB join reads the data at most twice whatever the
	// pool (bnl_writes is the one pass that spills it: the data's size in
	// pages); block nested loops rescans less as the pool grows. The
	// experiment itself panics if the two disagree on the pair count.
	"f7": func(t *testing.T, tb *stats.Table) {
		reads, size := column(t, tb, "ekdb_reads"), column(t, tb, "bnl_writes")
		for i := range reads {
			if reads[i] > 2*size[i] {
				t.Errorf("pool %s: ekdb_reads %g exceeds two scans of %g pages", tb.Rows[i][0], reads[i], size[i])
			}
		}
		monotone(t, tb, "bnl_reads", -1)
		constant(t, tb, "pairs")
	},
	// The DFT prefix is contractive: more coefficients never dismiss a
	// true pair and never admit a candidate fewer coefficients rejected.
	"f8": func(t *testing.T, tb *stats.Table) {
		constant(t, tb, "true_pairs")
		monotone(t, tb, "fp_ratio", -1)
	},
}

// column parses one named column of tb as numbers.
func column(t *testing.T, tb *stats.Table, name string) []float64 {
	t.Helper()
	for c, h := range tb.Headers {
		if h != name {
			continue
		}
		out := make([]float64, len(tb.Rows))
		for r, row := range tb.Rows {
			v, err := strconv.ParseFloat(row[c], 64)
			if err != nil {
				t.Fatalf("%s row %d: %v", name, r, err)
			}
			out[r] = v
		}
		return out
	}
	t.Fatalf("no column %q in %v", name, tb.Headers)
	return nil
}

// monotone fails if the column ever moves against dir (+1 non-decreasing,
// -1 non-increasing) from one row to the next.
func monotone(t *testing.T, tb *stats.Table, name string, dir float64) {
	t.Helper()
	vals := column(t, tb, name)
	for i := 1; i < len(vals); i++ {
		if (vals[i]-vals[i-1])*dir < 0 {
			t.Errorf("%s: row %d reads %g after %g", name, i, vals[i], vals[i-1])
		}
	}
}

// constant fails if the column is not one value on every row.
func constant(t *testing.T, tb *stats.Table, name string) {
	t.Helper()
	vals := column(t, tb, name)
	for i, v := range vals {
		if v != vals[0] {
			t.Errorf("%s: row %d reads %g, row 0 %g", name, i, v, vals[0])
		}
	}
}

// TestAlgorithmsAgreeAtBenchScale reruns the agreement check at a bench
// workload: every algorithm must report the same pair count F1 will time.
func TestAlgorithmsAgreeAtBenchScale(t *testing.T) {
	ds := Uniform(2000, 8, 0xF1)
	var want int64 = -1
	for _, algo := range AlgoNames {
		r := RunSelf(algo, ds, 0.3)
		if want == -1 {
			want = r.PairsEmitted
			continue
		}
		if r.PairsEmitted != want {
			t.Errorf("%s: %d pairs, want %d", algo, r.PairsEmitted, want)
		}
	}
	if want <= 0 {
		t.Error("degenerate workload: no pairs")
	}
}

func TestCalibrateEps(t *testing.T) {
	for _, d := range []int{2, 8, 16} {
		ds := Uniform(4000, d, 7)
		eps := CalibrateEps(ds, vec.L2, 8000)
		r := RunSelf("ekdb", ds, eps)
		// Calibration is statistical (subsampled); accept a 4× band.
		if r.PairsEmitted < 2000 || r.PairsEmitted > 32000 {
			t.Errorf("d=%d: calibrated eps %g yields %d pairs, want ≈8000", d, eps, r.PairsEmitted)
		}
		if d > 2 {
			prev := CalibrateEps(Uniform(4000, d-1, 7), vec.L2, 8000)
			if eps <= prev*0.5 {
				t.Errorf("d=%d: eps %g did not grow with dimensionality (prev %g)", d, eps, prev)
			}
		}
	}
}

func TestRunPanicsOnUnknownAlgo(t *testing.T) {
	ds := Uniform(10, 2, 1)
	defer func() {
		if recover() == nil {
			t.Error("unknown algorithm did not panic")
		}
	}()
	RunSelf("lsh", ds, 0.1)
}
