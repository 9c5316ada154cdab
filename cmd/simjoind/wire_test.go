package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"simjoin/internal/api"
	"simjoin/internal/gateway"
	"simjoin/internal/jointest"
	"simjoin/internal/obsv/trace"
)

// strictDecode decodes one JSON value into v and fails on any field v's
// type does not declare — the drift detector of the wire-contract test.
func strictDecode(t *testing.T, what string, data []byte, v any) {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		t.Fatalf("%s: %s does not decode into %T: %v", what, data, v, err)
	}
}

// wireTier is one tier of the wire-contract test.
type wireTier struct {
	name, url string
	// key authenticates at the gateway as a tenant without a budget;
	// pricedKey as one whose max_pairs matches the backends' -max-pairs.
	key, pricedKey string
	distributed    bool // answers carry the coordinator's blocks
}

// TestWireContract issues every route against a worker, a 3-worker
// coordinator and a gateway over that coordinator, and decodes each
// answer — JSON bodies, the NDJSON join summary, the watch events, the
// 429 bodies — strictly into its internal/api type. It fails the day a
// tier grows or renames a field the shared type does not have, or stops
// sending a block its tier is documented to add.
func TestWireContract(t *testing.T) {
	const budget = 1000
	worker := stack(t, spec{maxPairs: budget})
	st := stack(t, spec{workers: 3, margin: 1.0, maxPairs: budget, gateway: &gateway.Config{Tenants: []gateway.Tenant{
		{Name: "open", Key: "open-key"},
		{Name: "priced", Key: "priced-key", MaxPairs: budget},
	}}})

	pts := jointest.UniformPoints(120, 2, 7) // uniform in [0,1]²: eps 0.9 joins nearly all pairs, eps 0.05 a few dozen
	for _, tier := range []wireTier{
		{name: "worker", url: worker.URL},
		{name: "coordinator", url: st.coordURL, distributed: true},
		{name: "gateway", url: st.gwURL, key: "open-key", pricedKey: "priced-key", distributed: true},
	} {
		t.Run(tier.name, func(t *testing.T) {
			// blocks checks that the coordinator's block is on the answer
			// exactly when the tier is distributed.
			blocks := func(what string, present bool) {
				t.Helper()
				if present != tier.distributed {
					t.Errorf("%s: coordinator block present = %v on %s", what, present, tier.name)
				}
			}
			steps := []struct {
				method, path string
				body         any
				status       int
				into         any // nil: no body expected
			}{
				{method: "GET", path: "/healthz", status: 200, into: new(api.Health)},
				{method: "PUT", path: "/datasets/a", body: api.Points{Points: pts[:100]}, status: 200, into: new(api.DatasetInfo)},
				{method: "PUT", path: "/datasets/b", body: api.Points{Points: pts[100:]}, status: 200, into: new(api.DatasetInfo)},
				{method: "GET", path: "/datasets", status: 200, into: new([]api.DatasetInfo)},
				{method: "POST", path: "/datasets/a/points", body: api.Points{Points: pts[100:]}, status: 200, into: new(api.AppendResponse)},
				{method: "GET", path: "/datasets/a?eps=0.05&metric=L1", status: 200, into: new(api.DatasetDetail)},
				{method: "GET", path: "/datasets/a/explain?eps=0.05", status: 200, into: new(api.Explain)},
				{method: "POST", path: "/datasets/a/selfjoin", body: api.JoinParams{Eps: 0.05, MaxPairs: 3}, status: 200, into: new(api.JoinResponse)},
				{method: "POST", path: "/datasets/a/selfjoin", body: api.JoinParams{Eps: 0.9}, status: 429, into: new(api.ErrorBody)},
				{method: "POST", path: "/datasets/a/selfjoin", body: api.JoinParams{Eps: 0.9, Degrade: true}, status: 200, into: new(api.JoinResponse)},
				{method: "POST", path: "/datasets/a/range", body: api.PointQuery{Point: []float64{0.5, 0.5}, Radius: 0.2}, status: 200, into: new(api.RangeResponse)},
				{method: "POST", path: "/datasets/a/knn", body: api.PointQuery{Point: []float64{0.5, 0.5}, K: 3, Metric: "Linf"}, status: 200, into: new(api.KNNResponse)},
				{method: "POST", path: "/datasets/a/knn", body: api.PointQuery{Point: []float64{0.5, 0.5}, K: 1 << 40}, status: 200, into: new(api.KNNResponse)},
				{method: "POST", path: "/datasets/a/knn", body: api.PointQuery{Point: []float64{0.5}, K: 3}, status: 400, into: new(api.ErrorBody)},
				{method: "GET", path: "/datasets/nope", status: 404, into: new(api.ErrorBody)},
				{method: "GET", path: "/debug/queries?limit=5", status: 200, into: new(api.Queries)},
				{method: "GET", path: "/debug/traces?limit=2", status: 200, into: new([]trace.TraceData)},
				{method: "DELETE", path: "/datasets/b", status: 204},
			}
			for i := range steps {
				s := &steps[i]
				resp, _ := doJSON(t, s.method, tier.url+s.path,
					s.body, 0, "Authorization", "Bearer "+tier.key)
				data, _ := io.ReadAll(resp.Body)
				what := tier.name + " " + s.method + " " + s.path
				if resp.StatusCode != s.status {
					t.Fatalf("%s: status %d, want %d (%s)", what, resp.StatusCode, s.status, data)
				}
				if s.into == nil {
					if len(data) != 0 {
						t.Errorf("%s: unexpected body %s", what, data)
					}
					continue
				}
				strictDecode(t, what, data, s.into)
				switch v := s.into.(type) {
				case *api.Health:
					if v.Status != "ok" || (v.StoreHealth == nil) == (v.GatewayHealth == nil) {
						t.Errorf("%s: %s", what, data)
					}
				case *api.AppendResponse:
					blocks(what, v.ShardFailures != nil)
				case *api.DatasetDetail:
					blocks(what, v.ShardLayout != nil && v.Estimate.ShardEstimates != nil)
					if (v.Live != nil && v.Estimate.LocalPlan != nil) == tier.distributed {
						t.Errorf("%s: worker blocks on the wrong tier: %s", what, data)
					}
				case *api.Explain:
					blocks(what, v.ShardExplain != nil)
					if (v.LocalExplain != nil) == tier.distributed {
						t.Errorf("%s: %s", what, data)
					}
				case *api.JoinResponse:
					blocks(what, v.Scatter != nil)
					if v.EstimatedPairs == nil || (s.body.(api.JoinParams).Degrade != v.Degraded) {
						t.Errorf("%s: %s", what, data)
					}
					if !v.Degraded && (len(v.Pairs) != 3 || !v.Truncated || v.Total <= 3) {
						t.Errorf("%s: max_pairs 3 not honoured: %s", what, data)
					}
				case *api.RangeResponse:
					blocks(what, v.Scatter != nil)
				case *api.KNNResponse:
					blocks(what, v.Scatter != nil)
					if len(v.Neighbors) != min(s.body.(api.PointQuery).K, len(pts)) {
						t.Errorf("%s: %s", what, data)
					}
				case *api.ErrorBody:
					if v.Error == "" || (v.OverBudget != nil) != (s.status == 429) {
						t.Errorf("%s: %s", what, data)
					}
				case *[]trace.TraceData:
					if len(*v) == 0 || (*v)[0].TraceID == "" {
						t.Errorf("%s: no trace retained after %d requests: %s", what, i, data)
					}
				}
			}

			// POST /join: served by a worker, 501 once distributed.
			resp, _ := doJSON(t, "POST", tier.url+"/join",
				api.TwoJoinRequest{A: "a", B: "a", JoinParams: api.JoinParams{Eps: 0.02}}, 0, "Authorization", "Bearer "+tier.key)
			data, _ := io.ReadAll(resp.Body)
			if tier.distributed {
				if resp.StatusCode != http.StatusNotImplemented {
					t.Fatalf("%s POST /join: %d %s", tier.name, resp.StatusCode, data)
				}
				strictDecode(t, tier.name+" POST /join", data, new(api.ErrorBody))
			} else {
				var out api.JoinResponse
				strictDecode(t, tier.name+" POST /join", data, &out)
				if resp.StatusCode != 200 || out.Total == 0 {
					t.Fatalf("%s POST /join: %d %s", tier.name, resp.StatusCode, data)
				}
			}

			// The gateway's own 429: a tenant over its max_pairs budget.
			if tier.pricedKey != "" {
				resp, _ := doJSON(t, "POST", tier.url+"/datasets/a/selfjoin",
					api.JoinParams{Eps: 0.9}, 0, "Authorization", "Bearer "+tier.pricedKey)
				data, _ := io.ReadAll(resp.Body)
				var shed api.ShedBody
				strictDecode(t, "gateway shed", data, &shed)
				if resp.StatusCode != 429 || shed.Reason != "estimate" || shed.Tenant != "priced" || shed.OverBudget == nil || shed.MaxPairs != budget || shed.RetryAfterSeconds < 1 {
					t.Errorf("gateway shed: %d %s", resp.StatusCode, data)
				}
			}

			// The streamed join: pair lines, then one JoinSummary.
			resp, _ = doJSON(t, "POST", tier.url+"/datasets/a/selfjoin",
				api.JoinParams{Eps: 0.05, Stream: true}, 0, "Authorization", "Bearer "+tier.key)
			var streamed int64
			var sum *api.JoinSummary
			err := api.ReadStream(resp.Body, func([2]int) error {
				if sum != nil {
					t.Error("pair line after the summary")
				}
				streamed++
				return nil
			}, func(raw json.RawMessage) error {
				sum = new(api.JoinSummary)
				strictDecode(t, tier.name+" join summary", raw, sum)
				return nil
			})
			if err != nil || sum == nil || sum.Total != streamed || streamed == 0 || sum.EstimatedPairs == nil {
				t.Fatalf("%s join stream: %d pairs, summary %+v, err %v", tier.name, streamed, sum, err)
			}
			blocks("join summary", sum.Scatter != nil)

			// The watch: hello, the replay from 0 as one catch-up batch per
			// engine behind the tier, a live batch once the dataset grows,
			// and the end event when it goes.
			raw, _ := json.Marshal(api.WatchRequest{Eps: 0.02, After: new(int)})
			req, _ := http.NewRequest("POST", tier.url+"/datasets/a/watch", bytes.NewReader(raw))
			req.Header.Set("Authorization", "Bearer "+tier.key)
			resp, err = http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != 200 {
				t.Fatalf("%s watch: %d", tier.name, resp.StatusCode)
			}
			catchUps := 1
			if tier.distributed {
				catchUps = 3
			}
			lines := bufio.NewScanner(resp.Body)
			var seen []string
			for lines.Scan() {
				raw := lines.Bytes()
				if raw[0] == '[' {
					continue
				}
				var ev api.WatchEnd // every event has "event"
				if err := json.Unmarshal(raw, &ev); err != nil {
					t.Fatal(err)
				}
				seen = append(seen, ev.Event)
				switch ev.Event {
				case "hello":
					var h api.WatchHello
					strictDecode(t, tier.name+" watch hello", raw, &h)
					if h.Dataset != "a" || h.Seq != 120 || h.Metric != "L2" {
						t.Errorf("%s hello: %s", tier.name, raw)
					}
				case "batch":
					var b api.WatchBatch
					strictDecode(t, tier.name+" watch batch", raw, &b)
					blocks("watch batch", b.Shard != nil)
					if b.CatchUp {
						if catchUps--; catchUps == 0 {
							doJSON(t, "POST", tier.url+"/datasets/a/points",
								api.Points{Points: [][]float64{{0.5, 0.5}, {0.505, 0.5}}}, 0, "Authorization", "Bearer "+tier.key)
						}
					} else if catchUps == 0 {
						catchUps = -1 // delete once
						doJSON(t, "DELETE", tier.url+"/datasets/a",
							nil, 0, "Authorization", "Bearer "+tier.key)
					}
				case "end":
					strictDecode(t, tier.name+" watch end", raw, &ev)
					if ev.Reason != "dataset deleted" {
						t.Errorf("%s end: %s", tier.name, raw)
					}
				default:
					t.Errorf("%s watch: unknown event %s", tier.name, raw)
				}
			}
			if len(seen) < 4 || seen[0] != "hello" || seen[len(seen)-1] != "end" {
				t.Errorf("%s watch events = %v, want hello … batch … end", tier.name, strings.Join(seen, " "))
			}
		})
	}
}
