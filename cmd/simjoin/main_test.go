package main

import (
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"simjoin"
)

// writeFixture writes a tiny known dataset and returns its path.
func writeFixture(t *testing.T, name string, pts [][]float64) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := simjoin.FromPoints(pts).Save(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestSelfJoinOutput(t *testing.T) {
	in := writeFixture(t, "a.csv", [][]float64{
		{0, 0}, {0.05, 0}, {0.5, 0.5}, {0.52, 0.5}, {0.9, 0.9},
	})
	var out, errw strings.Builder
	if err := run(in, "", 0.1, "L2", "ekdb", 1, false, false, false, false, &out, &errw); err != nil {
		t.Fatal(err)
	}
	lines := nonEmptyLines(out.String())
	if len(lines) != 2 {
		t.Fatalf("got %d pair lines: %q", len(lines), out.String())
	}
	// Each line is i,j,dist with dist ≤ eps.
	for _, line := range lines {
		fields := strings.Split(line, ",")
		if len(fields) != 3 {
			t.Fatalf("malformed line %q", line)
		}
		d, err := strconv.ParseFloat(fields[2], 64)
		if err != nil || d > 0.1 {
			t.Fatalf("bad distance in %q", line)
		}
	}
	if !strings.Contains(errw.String(), "pairs=2") {
		t.Errorf("stats footer missing: %q", errw.String())
	}
}

func TestCountOnlyAndQuiet(t *testing.T) {
	in := writeFixture(t, "a.bin", [][]float64{{0}, {0.01}, {5}})
	var out, errw strings.Builder
	if err := run(in, "", 0.1, "L2", "brute", 1, true, false, true, false, &out, &errw); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out.String()) != "1" {
		t.Errorf("count output = %q, want 1", out.String())
	}
	if errw.Len() != 0 {
		t.Errorf("quiet run wrote stats: %q", errw.String())
	}
}

func TestTwoSetJoin(t *testing.T) {
	a := writeFixture(t, "a.csv", [][]float64{{0, 0}, {1, 1}})
	b := writeFixture(t, "b.csv", [][]float64{{0.05, 0}, {9, 9}})
	var out, errw strings.Builder
	if err := run(a, b, 0.1, "L2", "rtree", 1, false, false, true, false, &out, &errw); err != nil {
		t.Fatal(err)
	}
	lines := nonEmptyLines(out.String())
	if len(lines) != 1 || !strings.HasPrefix(lines[0], "0,0,") {
		t.Errorf("two-set output = %q", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	good := writeFixture(t, "a.csv", [][]float64{{0, 0}})
	bad3d := writeFixture(t, "b.csv", [][]float64{{0, 0, 0}})
	var out, errw strings.Builder
	for name, call := range map[string]func() error{
		"missing -in":   func() error { return run("", "", 0.1, "L2", "ekdb", 1, false, false, true, false, &out, &errw) },
		"bad metric":    func() error { return run(good, "", 0.1, "cosine", "ekdb", 1, false, false, true, false, &out, &errw) },
		"bad algorithm": func() error { return run(good, "", 0.1, "L2", "lsh", 1, false, false, true, false, &out, &errw) },
		"missing file": func() error {
			return run("/no/such/file.csv", "", 0.1, "L2", "ekdb", 1, false, false, true, false, &out, &errw)
		},
		"dims mismatch": func() error { return run(good, bad3d, 0.1, "L2", "ekdb", 1, false, false, true, false, &out, &errw) },
		"zero eps":      func() error { return run(good, "", 0, "L2", "ekdb", 1, false, false, true, false, &out, &errw) },
	} {
		if err := call(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// The -algo help names every algorithm and auto, and each name it
	// lists runs.
	help := algoUsage()
	for _, a := range append(simjoin.Algorithms(), simjoin.AlgorithmAuto) {
		if !strings.Contains(help, string(a)) {
			t.Errorf("-algo help %q does not name %s", help, a)
		}
	}
	for _, name := range strings.FieldsFunc(strings.TrimPrefix(help, "join algorithm: "), func(r rune) bool { return r == ',' || r == ' ' }) {
		if name == "or" {
			continue
		}
		if err := run(good, "", 0.1, "L2", name, 1, false, false, true, false, &out, &errw); err != nil {
			t.Errorf("-algo %s from the help: %v", name, err)
		}
	}
}

func TestDistHelper(t *testing.T) {
	a, b := []float64{0, 0}, []float64{3, 4}
	if d := dist(simjoin.L2, a, b); d != 5 {
		t.Errorf("L2 = %g", d)
	}
	if d := dist(simjoin.L1, a, b); d != 7 {
		t.Errorf("L1 = %g", d)
	}
	if d := dist(simjoin.Linf, a, b); d != 4 {
		t.Errorf("Linf = %g", d)
	}
}

func nonEmptyLines(s string) []string {
	var out []string
	for _, l := range strings.Split(s, "\n") {
		if strings.TrimSpace(l) != "" {
			out = append(out, l)
		}
	}
	return out
}

func TestRunKNN(t *testing.T) {
	a := writeFixture(t, "a.csv", [][]float64{{0, 0}, {1, 1}})
	b := writeFixture(t, "b.csv", [][]float64{{0.1, 0}, {0.9, 1}, {5, 5}})
	var out strings.Builder
	if err := runKNN(a, b, 2, "L2", 2, &out); err != nil {
		t.Fatal(err)
	}
	lines := nonEmptyLines(out.String())
	if len(lines) != 4 { // 2 query points × k=2
		t.Fatalf("got %d lines: %q", len(lines), out.String())
	}
	if !strings.HasPrefix(lines[0], "0,0,") || !strings.HasPrefix(lines[2], "1,1,") {
		t.Errorf("nearest neighbors wrong: %q", out.String())
	}
}

func TestRunKNNErrors(t *testing.T) {
	a := writeFixture(t, "a.csv", [][]float64{{0, 0}})
	var out strings.Builder
	if err := runKNN(a, "", 2, "L2", 1, &out); err == nil {
		t.Error("missing -with accepted")
	}
	if err := runKNN("", a, 2, "L2", 1, &out); err == nil {
		t.Error("missing -in accepted")
	}
	if err := runKNN(a, a, 2, "bad", 1, &out); err == nil {
		t.Error("bad metric accepted")
	}
	if err := runKNN(a, "/no/file.csv", 2, "L2", 1, &out); err == nil {
		t.Error("missing file accepted")
	}
}

func TestStreamMatchesBuffered(t *testing.T) {
	pts := [][]float64{
		{0, 0}, {0.05, 0}, {0.5, 0.5}, {0.52, 0.5}, {0.9, 0.9},
	}
	in := writeFixture(t, "a.csv", pts)
	var buffered, streamed, errw strings.Builder
	if err := run(in, "", 0.1, "L2", "ekdb", 1, false, false, true, false, &buffered, &errw); err != nil {
		t.Fatal(err)
	}
	// Streamed pairs arrive in engine order; compare as sets. Workers>1
	// exercises the funnel path end to end.
	for _, workers := range []int{1, 4} {
		streamed.Reset()
		errw.Reset()
		if err := run(in, "", 0.1, "L2", "ekdb", workers, false, true, false, false, &streamed, &errw); err != nil {
			t.Fatal(err)
		}
		want := nonEmptyLines(buffered.String())
		got := nonEmptyLines(streamed.String())
		if len(got) != len(want) {
			t.Fatalf("workers=%d: streamed %d lines, buffered %d", workers, len(got), len(want))
		}
		wantSet := map[string]bool{}
		for _, l := range want {
			wantSet[l] = true
		}
		for _, l := range got {
			if !wantSet[l] {
				t.Fatalf("workers=%d: streamed line %q not in buffered output", workers, l)
			}
		}
		if !strings.Contains(errw.String(), "pairs=2") {
			t.Errorf("workers=%d: stats footer missing: %q", workers, errw.String())
		}
	}
}

func TestStreamTwoSet(t *testing.T) {
	a := writeFixture(t, "a.csv", [][]float64{{0, 0}, {5, 5}})
	b := writeFixture(t, "b.csv", [][]float64{{0.05, 0}, {9, 9}})
	var out, errw strings.Builder
	if err := run(a, b, 0.1, "L2", "", 2, false, true, true, false, &out, &errw); err != nil {
		t.Fatal(err)
	}
	lines := nonEmptyLines(out.String())
	if len(lines) != 1 || !strings.HasPrefix(lines[0], "0,0,") {
		t.Fatalf("streamed two-set output = %q", out.String())
	}
}

func TestStreamAndCountExclusive(t *testing.T) {
	in := writeFixture(t, "a.csv", [][]float64{{0}, {1}})
	var out, errw strings.Builder
	if err := run(in, "", 0.1, "L2", "", 1, true, true, true, false, &out, &errw); err == nil {
		t.Fatal("run accepted -count with -stream")
	}
}
