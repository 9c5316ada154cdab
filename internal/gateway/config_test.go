package gateway

import (
	"strings"
	"testing"
)

func TestParseConfigValid(t *testing.T) {
	cfg, err := ParseConfig([]byte(`{
		"tenants": [
			{"name": "acme", "key": "k1", "rate_per_sec": 10, "burst": 20, "max_in_flight": 4, "weight": 2, "max_pairs": 100000},
			{"name": "beta", "key": "k2"}
		],
		"experiments": [
			{"name": "brute-5", "dataset": "pts", "percent": 5, "override": {"algorithm": "brute"}},
			{"name": "workers-shadow", "percent": 100, "shadow": true, "override": {"workers": 4}}
		]
	}`))
	if err != nil {
		t.Fatalf("ParseConfig: %v", err)
	}
	if len(cfg.Tenants) != 2 || len(cfg.Experiments) != 2 {
		t.Fatalf("got %d tenants, %d experiments", len(cfg.Tenants), len(cfg.Experiments))
	}
	if cfg.Experiments[1].Override.Workers != 4 {
		t.Fatalf("workers override not decoded: %+v", cfg.Experiments[1].Override)
	}
}

func TestParseConfigRejects(t *testing.T) {
	cases := []struct {
		name, js, want string
	}{
		{"no tenants", `{"tenants": []}`, "no tenants"},
		{"unknown field", `{"tenants": [{"name": "a", "key": "k", "rate_per_second": 1}]}`, "unknown field"},
		// The float32 kernel mode is gone; a config still asking for it must
		// fail loudly, not run an experiment that changes nothing.
		{"retired float32 override", `{"tenants": [{"name": "a", "key": "k"}], "experiments": [{"name": "e", "percent": 50, "override": {"float32": true}}]}`, `unknown field "float32"`},
		{"missing key", `{"tenants": [{"name": "a"}]}`, "no key"},
		{"dup name", `{"tenants": [{"name": "a", "key": "k1"}, {"name": "a", "key": "k2"}]}`, "duplicate tenant"},
		{"dup key", `{"tenants": [{"name": "a", "key": "k"}, {"name": "b", "key": "k"}]}`, "reuses"},
		{"negative limit", `{"tenants": [{"name": "a", "key": "k", "max_pairs": -1}]}`, "negative"},
		{"percent range", `{"tenants": [{"name": "a", "key": "k"}], "experiments": [{"name": "e", "percent": 150, "override": {"algorithm": "brute"}}]}`, "outside [0,100]"},
		{"empty override", `{"tenants": [{"name": "a", "key": "k"}], "experiments": [{"name": "e", "percent": 50}]}`, "empty override"},
		{"dup experiment", `{"tenants": [{"name": "a", "key": "k"}], "experiments": [{"name": "e", "percent": 1, "override": {"algorithm": "brute"}}, {"name": "e", "percent": 2, "override": {"algorithm": "auto"}}]}`, "duplicate experiment"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseConfig([]byte(tc.js))
			if err == nil {
				t.Fatalf("config accepted, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestExperimentMatches(t *testing.T) {
	for _, tc := range []struct {
		rule, dataset string
		want          bool
	}{
		{"", "pts", true},
		{"*", "pts", true},
		{"pts", "pts", true},
		{"pts", "other", false},
	} {
		e := Experiment{Dataset: tc.rule}
		if got := e.matches(tc.dataset); got != tc.want {
			t.Errorf("rule %q vs dataset %q: got %v, want %v", tc.rule, tc.dataset, got, tc.want)
		}
	}
}
