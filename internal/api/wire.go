package api

import (
	"simjoin/internal/live"
	"simjoin/internal/obsv/querylog"
)

// JoinParams is the query half of both join requests.
type JoinParams struct {
	Eps       float64 `json:"eps"`
	Metric    string  `json:"metric,omitempty"`    // "L2" (default), "L1", "Linf"
	Algorithm string  `json:"algorithm,omitempty"` // default "ekdb"; "auto" allowed
	Workers   int     `json:"workers,omitempty"`
	MaxPairs  int     `json:"max_pairs,omitempty"` // truncate the response (0 = no cap)
	Stream    bool    `json:"stream,omitempty"`    // NDJSON: one [i,j] line per pair, then a JoinSummary
	// Degrade opts into the admission budget's soft failure mode: a
	// query whose estimated result size exceeds the server's -max-pairs
	// runs counting-only (exact total, no pairs) instead of being
	// rejected with 429.
	Degrade bool `json:"degrade,omitempty"`
}

// TwoJoinRequest is the POST /join body: JoinParams plus the two sides.
// The gateway decodes every join body into it (A and B stay empty on a
// self-join).
type TwoJoinRequest struct {
	A string `json:"a,omitempty"`
	B string `json:"b,omitempty"`
	JoinParams
}

// ShardError names one shard that failed during a scatter.
type ShardError struct {
	Shard int    `json:"shard"`
	URL   string `json:"url"`
	Err   string `json:"error"`
	// Attempts is how many times the shard's RPC was tried before
	// giving up (0 when the failure carried no attempt count).
	Attempts int `json:"attempts,omitempty"`
}

// ShardFailures is what a coordinator adds to an answer so callers can
// see when a dead worker left it incomplete.
type ShardFailures struct {
	Partial      bool         `json:"partial"`
	FailedShards []ShardError `json:"failed_shards"`
}

// Scatter is the coordinator's block on query answers: how many shards
// were asked, and which of them are missing from the answer.
type Scatter struct {
	Shards int `json:"shards"`
	ShardFailures
}

// JoinSummary closes an NDJSON join stream and heads a collected answer.
type JoinSummary struct {
	Total     int64   `json:"total"`
	Truncated bool    `json:"truncated"`
	ElapsedMS float64 `json:"elapsed_ms"`
	*Scatter          // coordinator only
	// EstimatedPairs is the pre-run prediction, present when the query
	// was priced: always on a worker, whose every dataset carries a
	// sketch; on a coordinator only under a -max-pairs budget.
	EstimatedPairs *int64 `json:"estimated_pairs,omitempty"`
}

// JoinResponse is the collected (non-streamed) join answer.
type JoinResponse struct {
	Pairs [][2]int `json:"pairs"`
	JoinSummary
	// Degraded marks a counting-only run forced by the admission budget:
	// Total is exact, Pairs is empty.
	Degraded bool `json:"degraded,omitempty"`
}

// PointQuery is the range/KNN request.
type PointQuery struct {
	Point  []float64 `json:"point"`
	Radius float64   `json:"radius,omitempty"` // range queries
	K      int       `json:"k,omitempty"`      // KNN queries
	Metric string    `json:"metric,omitempty"`
}

// RangeResponse answers POST /datasets/{name}/range.
type RangeResponse struct {
	Indexes  []int `json:"indexes"`
	*Scatter       // coordinator only
}

// Neighbor is one KNN result.
type Neighbor struct {
	Index int     `json:"index"`
	Dist  float64 `json:"dist"`
}

// KNNResponse answers POST /datasets/{name}/knn.
type KNNResponse struct {
	Neighbors []Neighbor `json:"neighbors"`
	*Scatter             // coordinator only
}

// Points is the JSON upload and append body. Both routes also take
// Content-Type text/csv (one row per point) and ContentTypeSJN1.
type Points struct {
	Points [][]float64 `json:"points"`
}

// ContentTypeSJN1 marks an upload or append body in the library's binary
// point format ("SJN1" | uint32 dims | uint64 count | count·dims
// little-endian float64, dataset.WriteBinary): how a coordinator ships
// shards to its workers, and open to any client. A body of this type that
// does not open with "SJN1" is read as JSON.
const ContentTypeSJN1 = "application/octet-stream"

// DatasetInfo is one GET /datasets entry and the upload answer.
type DatasetInfo struct {
	Name string `json:"name"`
	Len  int    `json:"len"`
	Dims int    `json:"dims"`
}

// AppendResponse answers POST /datasets/{name}/points.
type AppendResponse struct {
	DatasetInfo
	*ShardFailures // coordinator only
}

// ShardEstimate is one worker's answer to a join-size estimate scatter:
// the predicted pair count of the shard's local self-join, straight from
// the worker's resident sketch. Err is set when the shard did not
// answer; its contribution is then missing from the total.
type ShardEstimate struct {
	Shard       int     `json:"shard"`
	URL         string  `json:"url"`
	Points      int     `json:"points"`
	Pairs       int64   `json:"pairs"`
	Selectivity float64 `json:"selectivity"`
	// Algorithm is what the shard's planner would run locally for this
	// workload — the per-shard half of a distributed EXPLAIN.
	Algorithm string `json:"algorithm,omitempty"`
	Err       string `json:"error,omitempty"`
}

// ShardEstimates is the per-shard account under a coordinator's summed
// estimate.
type ShardEstimates struct {
	Partial  bool            `json:"partial"`
	PerShard []ShardEstimate `json:"shard_estimates"`
}

// LocalPlan is a worker planner's view of one (metric, ε) workload.
type LocalPlan struct {
	Metric      string  `json:"metric"`
	Algorithm   string  `json:"algorithm"`
	Selectivity float64 `json:"selectivity"`
}

// Estimate is the "estimate" block GET /datasets/{name}?eps= adds: the
// predicted self-join size at that threshold. It is what a coordinator
// prices a distributed query with, shard by shard, and what the gateway
// prices a tenant's query with.
type Estimate struct {
	Eps             float64 `json:"eps"`
	Pairs           int64   `json:"pairs"`
	*LocalPlan              // worker only
	*ShardEstimates         // coordinator only
}

// SketchInfo describes a dataset's resident join-size sketch.
type SketchInfo struct {
	Points       int64 `json:"points"`
	Reservoir    int   `json:"reservoir"`
	SampledPairs int64 `json:"sampled_pairs"`
}

// ShardLayout is how a coordinator spread a dataset over the fleet:
// Stored > Len shows the margin replication, Watches counts the standing
// queries flowing through this coordinator.
type ShardLayout struct {
	Margin  float64 `json:"margin"`
	Shards  int     `json:"shards"`
	Stored  int     `json:"stored"`
	Watches int     `json:"watches"`
}

// DatasetDetail answers GET /datasets/{name}.
type DatasetDetail struct {
	DatasetInfo
	Live         *live.DatasetStats `json:"live,omitempty"`      // worker only
	WALBytes     *int64             `json:"wal_bytes,omitempty"` // worker with -data
	Sketch       *SketchInfo        `json:"sketch,omitempty"`    // worker only
	*ShardLayout                    // coordinator only
	Estimate     *Estimate          `json:"estimate,omitempty"` // with ?eps=
}

// ExplainPlan is the planner report under a worker's EXPLAIN.
type ExplainPlan struct {
	Algorithm      string  `json:"algorithm"`
	EstimatedPairs int64   `json:"estimated_pairs"`
	Selectivity    float64 `json:"selectivity"`
}

// LocalExplain is a worker's EXPLAIN: the engine the request asked for,
// the one that would run, and the planner report behind the choice.
type LocalExplain struct {
	Requested string      `json:"requested"`
	Algorithm string      `json:"algorithm"`
	Keys      string      `json:"keys,omitempty"` // ε-kdB key kind: raw, pivot/<k>
	Plan      ExplainPlan `json:"plan"`
}

// ShardExplain is a coordinator's EXPLAIN: the summed prediction over
// each shard's local plan.
type ShardExplain struct {
	EstimatedPairs int64 `json:"estimated_pairs"`
	Shards         int   `json:"shards"`
	ShardEstimates
}

// Explain answers GET /datasets/{name}/explain?eps=.
type Explain struct {
	Dataset       string  `json:"dataset"`
	Eps           float64 `json:"eps"`
	Metric        string  `json:"metric"`
	*LocalExplain         // worker only
	*ShardExplain         // coordinator only
}

// BackendHealth is one health probe of the tier below: a coordinator's
// worker, a gateway's backend.
type BackendHealth struct {
	URL string `json:"url"`
	OK  bool   `json:"ok"`
	Err string `json:"error,omitempty"`
}

// Persistence is the /healthz account of a worker's -data directory and
// of what it replayed at boot.
type Persistence struct {
	Enabled           bool   `json:"enabled"`
	Dir               string `json:"dir"`
	WALBytes          int64  `json:"wal_bytes"`
	RecoveredDatasets int    `json:"recovered_datasets"`
	ReplayedRecords   int    `json:"replayed_records"`
	TruncatedTails    int    `json:"truncated_tails"`
	Quarantined       int    `json:"quarantined"`
}

// StoreHealth is the worker and coordinator half of /healthz.
type StoreHealth struct {
	Datasets    int             `json:"datasets"`
	Persistence *Persistence    `json:"persistence,omitempty"` // worker with -data
	Workers     []BackendHealth `json:"workers,omitempty"`     // coordinator
}

// GatewayHealth is the gateway half of /healthz.
type GatewayHealth struct {
	Mode     string          `json:"mode"` // "gateway"
	Tenants  int             `json:"tenants"`
	Reloads  int64           `json:"reloads"`
	Backends []BackendHealth `json:"backends"`
}

// Health answers GET /healthz: Status is "ok", or "degraded" when a
// probe of the tier below failed; Build identifies the binary.
type Health struct {
	Status         string `json:"status"`
	*StoreHealth          // worker, coordinator
	*GatewayHealth        // gateway
	Build          any    `json:"build"`
}

// Queries answers GET /debug/queries.
type Queries struct {
	Total   int64             `json:"total"`
	Slow    int64             `json:"slow"`
	Queries []querylog.Record `json:"queries"`
}

// OverBudget is what an estimate-priced 429 adds to its error body, so
// the caller can see how far over budget the query was.
type OverBudget struct {
	EstimatedPairs int64 `json:"estimated_pairs"`
	MaxPairs       int64 `json:"max_pairs"`
}

// ErrorBody is every 4xx/5xx JSON answer.
type ErrorBody struct {
	Error       string `json:"error"`
	*OverBudget        // estimate-priced 429 only
}

// ShedBody is the gateway's 429: ErrorBody plus why and for whom the
// request was shed ("rate", "inflight", "estimate") and the Retry-After
// header's value.
type ShedBody struct {
	ErrorBody
	Reason            string `json:"reason"`
	Tenant            string `json:"tenant"`
	RetryAfterSeconds int    `json:"retry_after_seconds"`
}

// WatchRequest is the POST /datasets/{name}/watch body: the standing
// query plus the reconnect cursors.
type WatchRequest struct {
	Eps    float64 `json:"eps"`
	Metric string  `json:"metric,omitempty"`
	// Other turns the self-join into a two-set standing query; pairs are
	// ({name}-index, other-index). Workers only.
	Other string `json:"other,omitempty"`
	// After / AfterOther are replay cursors (dataset lengths from earlier
	// batch events): everything past them is re-delivered in one catch-up
	// batch before live delivery. Omitted = subscribe from now;
	// 0 = replay from the beginning (the only two a coordinator takes).
	After      *int `json:"after,omitempty"`
	AfterOther *int `json:"after_other,omitempty"`
	// Buffer is the subscriber's mailbox depth in batch events; falling
	// further behind than this gets the stream evicted (0 = default).
	Buffer int `json:"buffer,omitempty"`
}

// WatchHello opens a watch stream: the standing query as registered and
// the dataset length(s) it starts from.
type WatchHello struct {
	Event    string  `json:"event"` // "hello"
	Dataset  string  `json:"dataset"`
	Seq      int     `json:"seq"`
	Eps      float64 `json:"eps"`
	Metric   string  `json:"metric"`
	Other    string  `json:"other,omitempty"`     // two-set watches
	SeqOther *int    `json:"seq_other,omitempty"` // two-set watches
}

// WatchBatch delimits one delta batch — it follows the batch's [i,j]
// lines — and carries the resume cursor.
type WatchBatch struct {
	Event    string `json:"event"`           // "batch"
	Shard    *int   `json:"shard,omitempty"` // coordinator only: Seq is that shard's cursor
	Seq      int    `json:"seq"`
	Added    int    `json:"added"`
	Pairs    int    `json:"pairs"`
	SeqOther *int   `json:"seq_other,omitempty"` // two-set watches
	CatchUp  bool   `json:"catch_up,omitempty"`
}

// WatchEnd is the terminal event of a watch stream.
type WatchEnd struct {
	Event  string `json:"event"` // "end"
	Reason string `json:"reason"`
}
