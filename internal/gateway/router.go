package gateway

import (
	"hash/fnv"

	"simjoin/internal/api"
)

// StickyHeader is the optional request header mixed into experiment
// assignment. Without it, assignment is sticky per tenant+dataset — one
// principal sees one arm for the experiment's lifetime. Clients that
// want finer-grained (e.g. per-session) assignment set it; the same
// value always lands on the same arm.
const StickyHeader = "X-Sticky-Key"

// decision is the routing outcome for one join request.
type decision struct {
	// exp is the matched rule's name ("" when no experiment applies).
	exp string
	// candidate reports assignment to the candidate arm.
	candidate bool
	// shadow reports that the candidate runs as a shadow duplicate
	// (the incumbent still answers the client).
	shadow bool
	// override is the candidate arm's rewrite.
	override Override
}

// route matches the first applicable experiment and assigns the request
// to an arm. Assignment hashes experiment+tenant+dataset+sticky into
// 10 000 buckets, so a 0.01% granularity and — the property the whole
// design leans on — determinism: the same principal hits the same arm
// on every request, and flipping a rule's percent moves a predictable
// cohort.
func (g *Gateway) route(tenant, dataset, sticky string) decision {
	exps := g.experiments()
	for i := range exps {
		e := &exps[i]
		if !e.matches(dataset) {
			continue
		}
		d := decision{exp: e.Name, shadow: e.Shadow, override: e.Override}
		d.candidate = stickyBucket(e.Name, tenant, dataset, sticky) < e.Percent*100
		return d
	}
	return decision{}
}

// stickyBucket hashes the assignment key into [0, 10000).
func stickyBucket(experiment, tenant, dataset, sticky string) float64 {
	h := fnv.New64a()
	for _, s := range []string{experiment, tenant, dataset, sticky} {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	return float64(mix64(h.Sum64()) % 10000)
}

// mix64 is a splitmix64-style finalizer. FNV alone avalanches poorly
// when keys share long prefixes or suffixes — bucket assignments
// computed from raw FNV sums put near-identical keys in neighbouring
// buckets instead of spreading them uniformly — so the assignment hash
// passes through this before its modulus.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// applyOverride rewrites a decoded join request with the candidate
// arm's options.
func applyOverride(p *api.JoinParams, o Override) {
	if o.Algorithm != "" {
		p.Algorithm = o.Algorithm
	}
	if o.Workers != 0 {
		p.Workers = o.Workers
	}
}
