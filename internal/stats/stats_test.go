package stats

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCountersConcurrentAndSnapshot(t *testing.T) {
	var c Counters
	var wg sync.WaitGroup
	const workers, each = 8, 500
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				c.AddDistComps(1)
				c.AddCandidates(2)
				c.AddResults(1)
				c.AddNodeVisits(3)
				c.AddPageReads(1)
				c.AddPageWrites(1)
			}
		}()
	}
	wg.Wait()
	s := c.Snapshot()
	total := int64(workers * each)
	if s.DistComps != total || s.Candidates != 2*total || s.Results != total ||
		s.NodeVisits != 3*total || s.PageReads != total || s.PageWrites != total {
		t.Errorf("snapshot %+v, want multiples of %d", s, total)
	}
	c.Reset()
	if c.Snapshot() != (Snapshot{}) {
		t.Error("Reset left residue")
	}
}

func TestSnapshotSubAndRatio(t *testing.T) {
	a := Snapshot{DistComps: 10, Candidates: 20, Results: 5, NodeVisits: 7, PageReads: 2, PageWrites: 1}
	b := Snapshot{DistComps: 4, Candidates: 8, Results: 2, NodeVisits: 3, PageReads: 1, PageWrites: 1}
	d := a.Sub(b)
	if d.DistComps != 6 || d.Candidates != 12 || d.Results != 3 || d.NodeVisits != 4 || d.PageReads != 1 || d.PageWrites != 0 {
		t.Errorf("Sub = %+v", d)
	}
}

func TestStopwatch(t *testing.T) {
	sw := Start()
	time.Sleep(5 * time.Millisecond)
	if e := sw.Elapsed(); e < 4*time.Millisecond {
		t.Errorf("Elapsed = %v, want >= 4ms", e)
	}
	lap := sw.Lap()
	if lap < 4*time.Millisecond {
		t.Errorf("Lap = %v, want >= 4ms", lap)
	}
	if e := sw.Elapsed(); e > lap {
		t.Errorf("Elapsed after Lap = %v, not restarted", e)
	}
}

func TestTableText(t *testing.T) {
	tb := NewTable("F1", "n", "algo", "ms")
	tb.AddRow(1000, "ekdb", 1.5)
	tb.AddRow(200000, "brute", 12345.678)
	s := tb.String()
	if !strings.Contains(s, "== F1 ==") {
		t.Errorf("missing title in %q", s)
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("got %d lines: %q", len(lines), s)
	}
	// Columns align: "algo" header starts at the same offset as "ekdb".
	hdr, row := lines[1], lines[3]
	if strings.Index(hdr, "algo") != strings.Index(row, "ekdb") {
		t.Errorf("columns misaligned:\n%s\n%s", hdr, row)
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("fig", "a", "b")
	tb.AddRow("x", 2.0)
	var sb strings.Builder
	if err := tb.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	want := "# fig\na,b\nx,2\n"
	if sb.String() != want {
		t.Errorf("CSV = %q, want %q", sb.String(), want)
	}
}

func TestTableRowArityPanics(t *testing.T) {
	tb := NewTable("t", "a", "b")
	defer func() {
		if recover() == nil {
			t.Error("mismatched row did not panic")
		}
	}()
	tb.AddRow(1)
}

func TestFormatFloat(t *testing.T) {
	for _, tc := range []struct {
		in   float64
		want string
	}{
		{2, "2"},
		{-3, "-3"},
		{0, "0"},
		{0.5, "0.5"},
		{0.0001234, "0.000123"},
		{1234.5678, "1235"},
	} {
		if got := formatFloat(tc.in); got != tc.want {
			t.Errorf("formatFloat(%g) = %q, want %q", tc.in, got, tc.want)
		}
	}
}
