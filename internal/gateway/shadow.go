package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sync"
	"time"

	"simjoin/internal/api"
	"simjoin/internal/obsv/querylog"
)

// shadowWorkers bounds concurrently running shadow requests;
// beyond it shadows are dropped (counted), never queued — shadow
// traffic must not be able to back-pressure live traffic.
const shadowWorkers = 4

// shadowTimeout bounds one shadow run. Candidates slower than this are
// recorded as mismatches of kind "timeout" — a candidate engine that
// can't answer inside it has already failed the experiment.
const shadowTimeout = 60 * time.Second

// armResult is what the differ compares: the pair volume, an order-
// independent checksum over the pair set, and how long the arm took.
// checksumOK is false when the response carried no comparable pair set
// (degraded or truncated answers), in which case only totals diff.
type armResult struct {
	pairs      int64
	checksum   uint64
	checksumOK bool
	latency    time.Duration
}

// parseArmResult extracts an armResult from a (non-streamed) join
// response body. The checksum XORs a hash of each pair, so it is
// insensitive to pair order — worker and coordinator answers order
// pairs differently — but pins the exact pair set.
func parseArmResult(body []byte, latency time.Duration) (armResult, error) {
	var resp api.JoinResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return armResult{}, fmt.Errorf("parsing join response: %w", err)
	}
	r := armResult{pairs: resp.Total, latency: latency}
	if !resp.Truncated && !resp.Degraded {
		r.checksumOK = true
		for _, p := range resp.Pairs {
			r.checksum ^= pairHash(int64(p[0]), int64(p[1]))
		}
	}
	return r, nil
}

// pairHash hashes one result pair position-sensitively (i and j live in
// different index spaces for two-set joins, so no normalization).
func pairHash(i, j int64) uint64 {
	h := fnv.New64a()
	var buf [16]byte
	for k := 0; k < 8; k++ {
		buf[k] = byte(uint64(i) >> (8 * k))
		buf[8+k] = byte(uint64(j) >> (8 * k))
	}
	h.Write(buf[:])
	return h.Sum64()
}

// differ runs shadow requests against candidate arms and diffs them
// against the incumbent's answer, asynchronously and under a bounded
// worker pool.
type differ struct {
	g   *Gateway
	sem chan struct{}
	wg  sync.WaitGroup
}

// shadow fires one candidate run for a completed incumbent request.
// body is the candidate's (already overridden) request payload; inc the
// incumbent's parsed result. Never blocks: if every shadow worker is
// busy the run is dropped and counted.
func (d *differ) shadow(exp, url string, body []byte, tenant, dataset, kind string, inc armResult) {
	select {
	case d.sem <- struct{}{}:
	default:
		d.g.m.shadowDropped.Inc()
		return
	}
	d.wg.Add(1)
	go func() {
		defer func() { <-d.sem; d.wg.Done() }()
		d.run(exp, url, body, tenant, dataset, kind, inc)
	}()
}

// run executes the candidate request and records the diff.
func (d *differ) run(exp, url string, body []byte, tenant, dataset, kind string, inc armResult) {
	ctx, cancel := context.WithTimeout(context.Background(), shadowTimeout)
	defer cancel()
	start := time.Now()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		d.record(exp, tenant, dataset, kind, fmt.Sprintf("building shadow request: %v", err), inc, armResult{})
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := d.g.rc.DoStream(ctx, req)
	if err != nil {
		d.record(exp, tenant, dataset, kind, fmt.Sprintf("shadow request failed: %v", err), inc, armResult{})
		return
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(io.LimitReader(resp.Body, d.g.maxBody*64))
	latency := time.Since(start)
	d.g.m.armRequests.With(exp, armCandidate).Inc()
	d.g.m.armLatency.With(exp, armCandidate).Observe(latency.Seconds())
	if err != nil {
		d.record(exp, tenant, dataset, kind, fmt.Sprintf("reading shadow response: %v", err), inc, armResult{})
		return
	}
	if resp.StatusCode != http.StatusOK {
		d.record(exp, tenant, dataset, kind, fmt.Sprintf("shadow status %d: %s", resp.StatusCode, truncate(respBody, 200)), inc, armResult{})
		return
	}
	cand, err := parseArmResult(respBody, latency)
	if err != nil {
		d.record(exp, tenant, dataset, kind, err.Error(), inc, armResult{})
		return
	}
	diff := ""
	switch {
	case cand.pairs != inc.pairs:
		diff = fmt.Sprintf("pair count mismatch: incumbent %d, candidate %d", inc.pairs, cand.pairs)
	case inc.checksumOK && cand.checksumOK && cand.checksum != inc.checksum:
		diff = fmt.Sprintf("pair checksum mismatch at equal count %d: incumbent %x, candidate %x", inc.pairs, inc.checksum, cand.checksum)
	}
	d.record(exp, tenant, dataset, kind, diff, inc, cand)
}

// record finalizes one shadow comparison: the diff counter always, the
// mismatch counter and a pinned-worthy journal record when the arms
// disagreed.
func (d *differ) record(exp, tenant, dataset, kind, diff string, inc, cand armResult) {
	d.g.m.shadowDiffs.With(exp).Inc()
	if diff == "" {
		return
	}
	d.g.m.shadowMismatch.With(exp).Inc()
	rec := querylog.Record{
		Kind:           "shadow",
		Dataset:        dataset,
		Algorithm:      exp,
		EstimatedPairs: inc.pairs,
		ActualPairs:    cand.pairs,
		ElapsedNS:      int64(cand.latency),
		Outcome:        querylog.OutcomeError,
		Error:          fmt.Sprintf("experiment %q tenant %q %s: %s", exp, tenant, kind, diff),
	}
	d.g.qlog.Add(rec)
	if d.g.log != nil {
		d.g.log.Warn("shadow mismatch", "experiment", exp, "tenant", tenant,
			"dataset", dataset, "kind", kind, "diff", diff,
			"incumbent_pairs", inc.pairs, "candidate_pairs", cand.pairs)
	}
}

// truncate clips a response body for an error message.
func truncate(b []byte, n int) string {
	if len(b) > n {
		b = b[:n]
	}
	return string(b)
}
