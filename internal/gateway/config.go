// Package gateway is the multi-tenant front door of the simjoin stack:
// an authenticating, rate-limiting, experiment-routing reverse proxy
// mounted in front of one backend, a coordinator or a single worker
// (simjoind -gateway -backends <url>).
//
// It adds three things the backends deliberately do not have:
//
//   - Tenancy: API-key authentication from a hot-reloadable JSON
//     config, per-tenant token-bucket rate limits, per-tenant in-flight
//     caps with weighted fair queuing, and estimate-priced load
//     shedding that asks the backend GET /datasets/{name}?eps= for a
//     predicted join size before admitting an expensive query.
//   - Experiment routing: named rules that send a sticky percentage of
//     matching join traffic to a candidate arm with an options override
//     (forced algorithm, worker count), or shadow the
//     candidate — the client gets the incumbent's answer, the candidate
//     runs asynchronously and its pair count, checksum and latency are
//     diffed against the incumbent's.
//   - Observability: per-tenant and per-arm Prometheus families
//     (simjoin_gw_*), traceparent propagation so a stitched trace shows
//     gateway → coordinator → worker as one tree, and querylog journal
//     records for shed and mismatched requests.
//
// See docs/GATEWAY.md.
package gateway

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// Tenant is one API-key principal and its limits. The zero limits mean
// "unlimited" so a minimal config is just name + key.
type Tenant struct {
	// Name labels the tenant in metrics and logs; unique.
	Name string `json:"name"`
	// Key is the API key presented as "Authorization: Bearer <key>" or
	// "X-Api-Key: <key>"; unique across tenants.
	Key string `json:"key"`
	// RatePerSec is the token-bucket refill rate for requests (0 =
	// unlimited).
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	// Burst is the bucket capacity (default: max(RatePerSec, 1)).
	Burst float64 `json:"burst,omitempty"`
	// MaxInFlight caps the tenant's concurrently admitted queries
	// (0 = unlimited).
	MaxInFlight int `json:"max_in_flight,omitempty"`
	// Weight is the tenant's share of contended queue capacity
	// (default 1).
	Weight float64 `json:"weight,omitempty"`
	// MaxPairs is the tenant's admission budget: join queries whose
	// backend-estimated result size exceeds it are shed with 429
	// (0 = no pricing).
	MaxPairs int64 `json:"max_pairs,omitempty"`
}

// Override is the candidate arm's option rewrite, applied to the join
// request body before it is proxied.
type Override struct {
	// Algorithm forces the engine ("brute", "ekdb", "auto", …).
	Algorithm string `json:"algorithm,omitempty"`
	// Workers forces the parallelism (0 leaves the request's own).
	Workers int `json:"workers,omitempty"`
}

// zero reports an override that would change nothing.
func (o Override) zero() bool {
	return o.Algorithm == "" && o.Workers == 0
}

// Experiment is one routing rule over join traffic.
type Experiment struct {
	// Name labels the experiment in metrics and journal records; unique.
	Name string `json:"name"`
	// Dataset restricts the rule to one dataset ("" or "*" = all; for
	// two-set joins the A side is matched).
	Dataset string `json:"dataset,omitempty"`
	// Percent of matching traffic routed to the candidate arm, 0–100.
	// Assignment is hash-sticky by tenant+dataset (+ the optional
	// X-Sticky-Key request header), so one principal sees a consistent
	// arm for the experiment's lifetime.
	Percent float64 `json:"percent"`
	// Shadow duplicates the request to the candidate instead of
	// switching: the client is answered by the incumbent, and the
	// candidate's pair count, checksum and latency are diffed
	// asynchronously.
	Shadow bool `json:"shadow,omitempty"`
	// Override is what the candidate arm runs with.
	Override Override `json:"override"`
}

// matches reports whether the rule applies to a join on dataset.
func (e *Experiment) matches(dataset string) bool {
	return e.Dataset == "" || e.Dataset == "*" || e.Dataset == dataset
}

// Config is the gateway's hot-reloadable tenancy + experiment config.
type Config struct {
	Tenants     []Tenant     `json:"tenants"`
	Experiments []Experiment `json:"experiments,omitempty"`
}

// Validate checks the config's internal consistency: non-empty unique
// names and keys, sane numeric ranges.
func (c *Config) Validate() error {
	if len(c.Tenants) == 0 {
		return fmt.Errorf("gateway config lists no tenants")
	}
	names := make(map[string]bool, len(c.Tenants))
	keys := make(map[string]bool, len(c.Tenants))
	for i, t := range c.Tenants {
		if strings.TrimSpace(t.Name) == "" {
			return fmt.Errorf("tenant %d has no name", i)
		}
		if t.Key == "" {
			return fmt.Errorf("tenant %q has no key", t.Name)
		}
		if names[t.Name] {
			return fmt.Errorf("duplicate tenant name %q", t.Name)
		}
		if keys[t.Key] {
			return fmt.Errorf("tenant %q reuses another tenant's key", t.Name)
		}
		names[t.Name], keys[t.Key] = true, true
		if t.RatePerSec < 0 || t.Burst < 0 || t.MaxInFlight < 0 || t.Weight < 0 || t.MaxPairs < 0 {
			return fmt.Errorf("tenant %q has a negative limit", t.Name)
		}
	}
	expNames := make(map[string]bool, len(c.Experiments))
	for i, e := range c.Experiments {
		if strings.TrimSpace(e.Name) == "" {
			return fmt.Errorf("experiment %d has no name", i)
		}
		if expNames[e.Name] {
			return fmt.Errorf("duplicate experiment name %q", e.Name)
		}
		expNames[e.Name] = true
		if e.Percent < 0 || e.Percent > 100 {
			return fmt.Errorf("experiment %q: percent %v outside [0,100]", e.Name, e.Percent)
		}
		if e.Override.zero() && !e.Shadow {
			return fmt.Errorf("experiment %q has an empty override and is not a shadow rule; it would route traffic to an identical arm", e.Name)
		}
	}
	return nil
}

// ParseConfig decodes and validates a JSON config. Unknown fields are
// rejected so a typo'd limit fails the reload instead of silently
// meaning "unlimited".
func ParseConfig(data []byte) (*Config, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var c Config
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("parsing gateway config: %w", err)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}

// LoadConfig reads and parses a config file.
func LoadConfig(path string) (*Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading gateway config: %w", err)
	}
	return ParseConfig(data)
}
