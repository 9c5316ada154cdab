package gateway

import (
	"encoding/json"
	"fmt"
	"testing"

	"simjoin/internal/api"
)

func testGateway(t *testing.T, cfg *Config) *Gateway {
	t.Helper()
	g, err := New(Options{Backend: "http://unused"})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if cfg != nil {
		if err := g.SetConfig(cfg); err != nil {
			t.Fatalf("SetConfig: %v", err)
		}
	}
	return g
}

func TestRouteSticky(t *testing.T) {
	g := testGateway(t, &Config{
		Tenants: []Tenant{{Name: "a", Key: "k"}},
		Experiments: []Experiment{
			{Name: "e", Dataset: "pts", Percent: 50, Override: Override{Algorithm: "brute"}},
		},
	})
	first := g.route("a", "pts", "s1")
	for i := 0; i < 100; i++ {
		if d := g.route("a", "pts", "s1"); d.candidate != first.candidate {
			t.Fatal("assignment not sticky across repeated requests")
		}
	}
	if d := g.route("a", "other", "s1"); d.exp != "" {
		t.Fatalf("rule for dataset pts matched dataset other: %+v", d)
	}
}

func TestRoutePercentBounds(t *testing.T) {
	mk := func(pct float64) *Gateway {
		return testGateway(t, &Config{
			Tenants:     []Tenant{{Name: "a", Key: "k"}},
			Experiments: []Experiment{{Name: "e", Percent: pct, Override: Override{Algorithm: "brute"}}},
		})
	}
	g0, g100 := mk(0), mk(100)
	for i := 0; i < 200; i++ {
		sticky := fmt.Sprintf("s%d", i)
		if d := g0.route("a", "pts", sticky); d.candidate {
			t.Fatal("0% experiment assigned a candidate")
		}
		if d := g100.route("a", "pts", sticky); !d.candidate {
			t.Fatal("100% experiment left a request on the incumbent")
		}
	}
}

func TestRouteSplitDistribution(t *testing.T) {
	g := testGateway(t, &Config{
		Tenants:     []Tenant{{Name: "a", Key: "k"}},
		Experiments: []Experiment{{Name: "e", Percent: 50, Override: Override{Algorithm: "brute"}}},
	})
	candidates := 0
	const n = 2000
	for i := 0; i < n; i++ {
		if g.route("a", "pts", fmt.Sprintf("user-%d", i)).candidate {
			candidates++
		}
	}
	// FNV over 2000 distinct keys at 50%: allow ±10 points.
	if candidates < n*40/100 || candidates > n*60/100 {
		t.Fatalf("50%% split assigned %d/%d to candidate", candidates, n)
	}
}

func TestRouteFirstMatchWins(t *testing.T) {
	g := testGateway(t, &Config{
		Tenants: []Tenant{{Name: "a", Key: "k"}},
		Experiments: []Experiment{
			{Name: "specific", Dataset: "pts", Percent: 100, Override: Override{Algorithm: "brute"}},
			{Name: "catchall", Percent: 100, Override: Override{Algorithm: "auto"}},
		},
	})
	if d := g.route("a", "pts", ""); d.exp != "specific" {
		t.Fatalf("matched %q, want specific", d.exp)
	}
	if d := g.route("a", "other", ""); d.exp != "catchall" {
		t.Fatalf("matched %q, want catchall", d.exp)
	}
}

func TestApplyOverride(t *testing.T) {
	req := api.TwoJoinRequest{JoinParams: api.JoinParams{Eps: 0.5, Algorithm: "auto", MaxPairs: 10}}
	applyOverride(&req.JoinParams, Override{Algorithm: "brute", Workers: 3})
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("encoding: %v", err)
	}
	var got map[string]any
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatalf("re-decoding: %v", err)
	}
	if got["algorithm"] != "brute" || got["workers"] != float64(3) {
		t.Fatalf("override not applied: %v", got)
	}
	if got["eps"] != 0.5 || got["max_pairs"] != float64(10) {
		t.Fatalf("unrelated fields disturbed: %v", got)
	}
}
