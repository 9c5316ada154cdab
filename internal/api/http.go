package api

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"time"

	"simjoin/internal/obsv"
	"simjoin/internal/obsv/querylog"
	"simjoin/internal/obsv/trace"
)

// Error writes an ErrorBody with the given status.
func Error(w http.ResponseWriter, status int, format string, args ...any) {
	WriteStatus(w, status, ErrorBody{Error: fmt.Sprintf(format, args...)})
}

// WriteStatus answers status with v, which must not fail to encode.
func WriteStatus(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteJSON answers 200 with v. A value JSON cannot carry (a NaN or ±Inf
// distance) is answered 500 instead of an empty 200: the encoder writes
// nothing before it fails, so the status line is still ours to choose.
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	var unsupported *json.UnsupportedValueError
	if err := json.NewEncoder(w).Encode(v); errors.As(err, &unsupported) {
		Error(w, http.StatusInternalServerError, "encoding response: %v", err)
	}
}

// RejectOverBudget answers the estimate-priced 429.
func RejectOverBudget(w http.ResponseWriter, est, budget int64) {
	WriteStatus(w, http.StatusTooManyRequests, ErrorBody{
		Error:      fmt.Sprintf(`estimated result size %d exceeds the server's -max-pairs budget %d; narrow eps, or set "degrade": true for a counting-only run`, est, budget),
		OverBudget: &OverBudget{EstimatedPairs: est, MaxPairs: budget},
	})
}

// Decode parses a JSON request body of at most limit bytes into v,
// answering 400 itself when it cannot.
func Decode(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v); err != nil {
		Error(w, http.StatusBadRequest, "parsing request: %v", err)
		return false
	}
	return true
}

// Probe asks every base URL's /healthz through get, concurrently, and
// reports each outcome in order — how a tier sees the tier below.
func Probe(ctx context.Context, get func(ctx context.Context, url string) (*http.Response, error), urls []string) []BackendHealth {
	out := make([]BackendHealth, len(urls))
	var wg sync.WaitGroup
	for i, u := range urls {
		out[i].URL = u
		wg.Add(1)
		go func(h *BackendHealth) {
			defer wg.Done()
			resp, err := get(ctx, h.URL+"/healthz")
			if err != nil {
				h.Err = err.Error()
				return
			}
			defer resp.Body.Close()
			_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
			if resp.StatusCode != http.StatusOK {
				h.Err = fmt.Sprintf("status %d", resp.StatusCode)
				return
			}
			h.OK = true
		}(&out[i])
	}
	wg.Wait()
	return out
}

// statusWriter records the status code so error responses can be
// counted (0 until the response starts), and the body bytes written so
// access logs can report response size.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// Flush forwards to the wrapped writer so NDJSON streaming keeps working
// through the middleware.
func (w *statusWriter) Flush() {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.ResponseController reach the underlying writer's
// optional interfaces (SetWriteDeadline, used by watch streams) through
// the middleware.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// Routes is the REST surface every tier serves, one handler per route
// (see the package comment for the table).
type Routes struct {
	Healthz, List, Get, Explain, Put, Delete  http.HandlerFunc
	Append, Watch, SelfJoin, Range, KNN, Join http.HandlerFunc
}

// Server is the per-request plumbing a tier mounts its Routes into.
// Each tier owns its own registry rather than a process global, so tests
// (and a worker + coordinator sharing one process) can run many servers
// without duplicate-name collisions.
type Server struct {
	// Registry is served at GET /metrics; Requests, Errors and Latency
	// are its per-route families (their names carry the tier's prefix).
	Registry         *obsv.Registry
	Requests, Errors *obsv.CounterVec
	Latency          *obsv.HistogramVec
	// Tracer retains completed request traces for GET /debug/traces;
	// SpanPrefix opens every server span's name ("gw " on the gateway),
	// so a stitched trace tells the tiers' server spans apart.
	Tracer     *trace.Tracer
	SpanPrefix string
	// Log, when non-nil, gets one structured access-log line per request.
	Log *slog.Logger
	// Journal is the per-query journal behind GET /debug/queries.
	Journal *querylog.Log
	// Below are the base URLs of the tier underneath (a coordinator's
	// workers, a gateway's backend; none on a worker), and Get is this
	// tier's retrying client: GET /debug/traces/{id} stitches their
	// answers under this tier's own spans.
	Below []string
	Get   func(ctx context.Context, url string) (*http.Response, error)
}

// Handler mounts rt, each route behind Instrument, next to the scrape
// and debug routes. Those sit outside the middleware: scraping metrics,
// traces or the journal must not mint traffic, traces or journal
// records of its own.
func (s *Server) Handler(rt Routes) *http.ServeMux {
	mux := http.NewServeMux()
	for _, e := range []struct {
		pattern string
		h       http.HandlerFunc
	}{
		{"GET /healthz", rt.Healthz},
		{"GET /datasets", rt.List},
		{"GET /datasets/{name}", rt.Get},
		{"GET /datasets/{name}/explain", rt.Explain},
		{"PUT /datasets/{name}", rt.Put},
		{"DELETE /datasets/{name}", rt.Delete},
		{"POST /datasets/{name}/points", rt.Append},
		{"POST /datasets/{name}/watch", rt.Watch},
		{"POST /datasets/{name}/selfjoin", rt.SelfJoin},
		{"POST /datasets/{name}/range", rt.Range},
		{"POST /datasets/{name}/knn", rt.KNN},
		{"POST /join", rt.Join},
	} {
		mux.HandleFunc(e.pattern, s.Instrument(e.pattern, e.h))
	}
	mux.Handle("GET /metrics", s.Registry.Handler())
	mux.HandleFunc("GET /debug/traces", s.handleTraces)
	mux.HandleFunc("GET /debug/traces/{id}", s.handleTrace)
	mux.HandleFunc("GET /debug/queries", s.handleQueries)
	return mux
}

// Instrument is the middleware every REST route runs behind. It opens a
// server span — continuing the caller's trace when the request carries
// a W3C traceparent header, a fresh trace otherwise — and stores it in
// the request context so handlers, the join library and the tier's
// fan-out all record under it; counts the request, its latency and, at
// status ≥ 400, the error under the route pattern; and when the handler
// returns emits one structured access-log line carrying
// trace_id/span_id, so logs and /debug/traces cross-link on the IDs.
//
// A panicking handler costs its own request only: it is counted and
// logged as a 500, and answered 500 if it had not started its response.
// One that had (a stream) is aborted with http.ErrAbortHandler, so the
// client sees a cut stream, never a clean end.
func (s *Server) Instrument(pattern string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sp := s.Tracer.StartRemote(s.SpanPrefix+pattern, r.Header.Get("traceparent"))
		sp.SetAttr("method", r.Method)
		sp.SetAttr("path", r.URL.Path)
		reqID := r.Header.Get("X-Request-Id")
		if reqID != "" {
			sp.SetAttr("request_id", reqID)
		}
		if sp != nil {
			r = r.WithContext(trace.NewContext(r.Context(), sp))
		}
		s.Requests.With(pattern).Inc()
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		p, abort := contain(h, sw, r)
		elapsed := time.Since(start)
		if abort {
			// Cut the connection once the request is accounted below.
			defer panic(http.ErrAbortHandler)
		}
		s.Latency.With(pattern).Observe(elapsed.Seconds())
		if sw.status >= 400 {
			s.Errors.With(pattern).Inc()
		}
		sp.SetAttr("status", strconv.Itoa(sw.status))
		sp.End()
		if s.Log == nil {
			return
		}
		level := slog.LevelInfo
		if sw.status >= 500 {
			level = slog.LevelError
		} else if sw.status >= 400 {
			level = slog.LevelWarn
		}
		attrs := []any{
			slog.String("method", r.Method),
			slog.String("route", pattern),
			slog.Int("status", sw.status),
			slog.Int64("bytes", sw.bytes),
			slog.Duration("duration", elapsed),
		}
		if sp != nil {
			attrs = append(attrs,
				slog.String("trace_id", sp.TraceID().String()),
				slog.String("span_id", sp.SpanID().String()))
		}
		if reqID != "" {
			attrs = append(attrs, slog.String("request_id", reqID))
		}
		if p != nil {
			attrs = append(attrs, slog.String("panic", fmt.Sprint(p)))
		}
		s.Log.Log(r.Context(), level, "request", attrs...)
	}
}

// contain runs h and recovers its panic, returning the panic's value
// with w's status set to 500. It answers the 500 itself when h had not
// started its response; abort reports that it had, or that h aborted on
// purpose with http.ErrAbortHandler, so the caller must cut the
// connection instead.
func contain(h http.HandlerFunc, w *statusWriter, r *http.Request) (p any, abort bool) {
	defer func() {
		if p = recover(); p == nil {
			return
		}
		if abort = p == http.ErrAbortHandler || w.status != 0; !abort {
			Error(w, http.StatusInternalServerError, "internal error: %v", p)
		}
		w.status = http.StatusInternalServerError
	}()
	h(w, r)
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return nil, false
}

// limitParam parses the optional ?limit=N of the debug routes (-1 when
// absent), answering 400 itself on a bad one.
func limitParam(w http.ResponseWriter, r *http.Request) (int, bool) {
	v := r.URL.Query().Get("limit")
	if v == "" {
		return -1, true
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		Error(w, http.StatusBadRequest, "limit must be a non-negative integer, got %q", v)
		return 0, false
	}
	return n, true
}

// handleTraces serves the tracer's retained traces as a bare JSON
// array, newest first — the raw material for debugging one slow request
// after the fact. ?limit=N caps the answer.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	limit, ok := limitParam(w, r)
	if !ok {
		return
	}
	traces := s.Tracer.Traces()
	for i, j := 0, len(traces)-1; i < j; i, j = i+1, j-1 {
		traces[i], traces[j] = traces[j], traces[i]
	}
	if limit >= 0 && limit < len(traces) {
		traces = traces[:limit]
	}
	if traces == nil {
		traces = []trace.TraceData{}
	}
	WriteJSON(w, traces)
}

// handleTrace serves GET /debug/traces/{id}: every span this tier
// retains under the ID (a daemon can retain several views of one
// distributed trace), stitched with each Below tier's answer to the
// same route, fetched concurrently. A tier below answers already
// stitched, so the top tier's answer is the whole tree; Sources says
// which tiers below could not answer.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sets := make([][]trace.SpanData, 1+len(s.Below))
	sets[0] = trace.Collect(s.Tracer.Traces(), id)
	out := TraceView{Sources: make([]TraceSource, len(s.Below))}
	var wg sync.WaitGroup
	for i, u := range s.Below {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out.Sources[i].URL = u
			sets[i+1], out.Sources[i].Err = s.fetchSpans(r.Context(), u+"/debug/traces/"+id)
		}()
	}
	wg.Wait()
	if out.TraceData = trace.Stitch(id, sets...); len(out.Spans) == 0 {
		Error(w, http.StatusNotFound, "no trace %q retained here or below", id)
		return
	}
	WriteJSON(w, out)
}

// fetchSpans reads one tier below's answer to GET /debug/traces/{id}.
// A 404 means it retained nothing for the ID, which is not an error.
func (s *Server) fetchSpans(ctx context.Context, url string) ([]trace.SpanData, string) {
	resp, err := s.Get(ctx, url)
	if err != nil {
		return nil, err.Error()
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
		if resp.StatusCode == http.StatusNotFound {
			return nil, ""
		}
		return nil, fmt.Sprintf("status %d", resp.StatusCode)
	}
	var tv TraceView
	if err := json.NewDecoder(io.LimitReader(resp.Body, 8<<20)).Decode(&tv); err != nil {
		return nil, err.Error()
	}
	return tv.Spans, ""
}

// handleQueries serves the journal newest first under running totals,
// narrowed by ?slow=1 (slow-classified records only), ?dataset=<name>
// (either side of a join) and ?limit=N.
func (s *Server) handleQueries(w http.ResponseWriter, r *http.Request) {
	limit, ok := limitParam(w, r)
	if !ok {
		return
	}
	f := querylog.Filter{Dataset: r.URL.Query().Get("dataset"), Limit: max(limit, 0)}
	if v := r.URL.Query().Get("slow"); v == "1" || v == "true" {
		f.SlowOnly = true
	}
	out := Queries{Queries: s.Journal.Snapshot(f)}
	out.Total, out.Slow = s.Journal.Totals()
	WriteJSON(w, out)
}
