package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// runFile is what -repeat keeps of one run: where it ran and its result.
type runFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Stamp    string `json:"stamp"`
	Result   result `json:"result"`
}

// repeatRuns re-runs this program once per seed and workload, each in a
// process of its own so that no run inherits another's heap or peak RSS.
func repeatRuns(workload string, seed int64, n int, dir string, settings []string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	names := workloads
	if workload != "" {
		names = []string{workload}
	}
	for k := 0; k < n; k++ {
		for _, name := range names {
			args := append([]string{"-workload", name, "-seed", fmt.Sprint(seed + int64(k))}, settings...)
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w\n%s", name, seed+int64(k), err, out)
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			rf := runFile{Workload: name, Seed: seed + int64(k), Stamp: lines[0]}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rf.Result); err != nil {
				return fmt.Errorf("%s seed %d: last line is not a result: %w", name, seed+int64(k), err)
			}
			data, err := json.MarshalIndent(rf, "", "  ")
			if err != nil {
				return err
			}
			path := filepath.Join(dir, fmt.Sprintf("%s.%d.json", name, k+1))
			if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
				return err
			}
			fmt.Printf("%s: op_p50_ms %.4g, failed %d of %d\n", path, rf.Result.Metrics["op_p50_ms"].Value, rf.Result.Failed, rf.Result.Attempted)
		}
	}
	return nil
}

// loadSet reads a -repeat directory into workload → metric → values.
func loadSet(dir string) (map[string]map[string][]float64, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("%s holds no run files", dir)
	}
	set := make(map[string]map[string][]float64)
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rf runFile
		if err := json.Unmarshal(data, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if set[rf.Workload] == nil {
			set[rf.Workload] = make(map[string][]float64)
		}
		for name, m := range rf.Result.Metrics {
			set[rf.Workload][name] = append(set[rf.Workload][name], m.Value)
		}
		failed := float64(rf.Result.Failed)
		set[rf.Workload]["failed"] = append(set[rf.Workload]["failed"], failed)
	}
	return set, nil
}

// compareSets prints, per workload and end-to-end metric, both sets'
// medians, how much worse the second is as a share of the first, the
// bound, and PASS or FAIL. Failed ops may not rise at all.
func compareSets(w io.Writer, dirA, dirB string) (bool, error) {
	a, err := loadSet(dirA)
	if err != nil {
		return false, err
	}
	b, err := loadSet(dirB)
	if err != nil {
		return false, err
	}
	pass := true
	fmt.Fprintf(w, "%-14s %-12s %12s %12s %8s %6s\n", "workload", "metric", "median A", "median B", "worse", "bound")
	for _, name := range workloads {
		if a[name] == nil || b[name] == nil {
			continue
		}
		for _, d := range endToEnd {
			ma, mb := median(a[name][d.Name]), median(b[name][d.Name])
			worse := ratio(mb-ma, ma)
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "PASS"
			if worse > d.Bound {
				verdict, pass = "FAIL", false
			}
			fmt.Fprintf(w, "%-14s %-12s %12.5g %12.5g %+7.1f%% %5.0f%% %s\n", name, d.Name, ma, mb, 100*worse, 100*d.Bound, verdict)
		}
		fa, fb := sum(a[name]["failed"]), sum(b[name]["failed"])
		verdict := "PASS"
		if fb > fa {
			verdict, pass = "FAIL", false
		}
		fmt.Fprintf(w, "%-14s %-12s %12g %12g %8s %6s %s\n", name, "failed ops", fa, fb, "", "0", verdict)
	}
	return pass, nil
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
