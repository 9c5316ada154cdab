// Package api is the serving core of the three HTTP tiers — worker,
// coordinator (cmd/simjoind) and gateway (internal/gateway): the only
// place that knows the REST wire format and the per-request plumbing.
// It holds the wire types, the middleware, error and debug handlers every
// tier mounts (Server, Routes) — the one trace stitcher among them — and
// the one writer and one reader of each NDJSON stream (PairStream,
// WatchStream, ReadStream). What differs between tiers — how a query is
// priced or run, which error maps to which status, the health, dataset
// and explain shapes — stays with the tier; the types below mark those
// parts "worker only" or "coordinator only".
//
// # Wire reference
//
// Every body is JSON, except that the two points routes also take
// text/csv and ContentTypeSJN1 (the binary point format a coordinator
// ships shards in); every 4xx/5xx answer is an ErrorBody. The gateway
// relays the backend's answers byte for byte behind API-key auth, and
// adds only its own 401s and 429s (ShedBody).
//
//	route                             request                                              answer             a coordinator adds
//	GET    /healthz                   —                                                    Health             workers (gateway: GatewayHealth)
//	GET    /datasets                  —                                                    []DatasetInfo      —
//	PUT    /datasets/{name}           Points | text/csv | application/octet-stream (SJN1)  DatasetInfo        ?margin= sets the replication width
//	GET    /datasets/{name}           [?eps=&metric=]                                      DatasetDetail      ShardLayout; estimate.shard_estimates
//	GET    /datasets/{name}/explain   ?eps=[&metric=]                                      Explain            ShardExplain instead of LocalExplain
//	DELETE /datasets/{name}           —                                                    204                —
//	POST   /datasets/{name}/points    Points | text/csv | application/octet-stream (SJN1)  AppendResponse     partial, failed_shards
//	POST   /datasets/{name}/selfjoin  JoinParams                                           JoinResponse       shards, partial, failed_shards
//	POST   /datasets/{name}/range     PointQuery                                           RangeResponse      shards, partial, failed_shards
//	POST   /datasets/{name}/knn       PointQuery                                           KNNResponse        shards, partial, failed_shards
//	POST   /datasets/{name}/watch     WatchRequest                                         NDJSON, below      batch.shard; no other, after ∈ {omitted, 0}
//	POST   /join                      TwoJoinRequest                                       JoinResponse       501: not distributed
//	GET    /metrics                   —                                                    Prometheus text    —
//	GET    /debug/traces              [?limit=]                                            []trace.TraceData  —
//	GET    /debug/traces/{id}         —                                                    TraceView          sources: the tier below, stitched in
//	GET    /debug/queries             [?slow=&dataset=&limit=]                             Queries            —
//
// A join with "stream": true answers application/x-ndjson instead: one
// [i,j] line per pair, then one JoinSummary line. A watch answers NDJSON
// too: a WatchHello, then per appended batch its [i,j] lines followed by
// a WatchBatch, and a WatchEnd when the server ends the stream. A join
// whose estimated size exceeds -max-pairs answers 429 with
// ErrorBody.OverBudget filled, or — with "degrade": true — a JoinResponse
// marked Degraded that carries the exact total and no pairs.
//
// Every size prediction on the wire — JoinSummary.EstimatedPairs,
// Estimate, ShardEstimate, ExplainPlan — is read from the worker's
// resident join-size sketch (every served dataset has one), so none
// names a source.
package api
