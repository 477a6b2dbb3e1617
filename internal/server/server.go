// Package server exposes the AQP middleware over HTTP, matching the
// deployment shape §2 describes for sampling-based systems: "a thin layer of
// middleware which re-writes queries to run against sample tables". Clients
// POST SQL; the server compiles it, answers from the pre-built samples, and
// returns per-group estimates with confidence intervals and exactness flags.
//
// # API surface
//
// The client API lives under /v1 only (POST /v1/query, POST /v1/exact, GET
// /v1/columns, GET /v1/strategies, POST /v1/admin/rebuild, POST /v1/ingest,
// and GET /v1/shard in shard mode); any other path, including the same
// paths without the /v1 prefix, is a 404. Probes (GET /healthz, /readyz)
// and telemetry (GET /metrics in Prometheus text format, GET
// /debug/slowlog) are unversioned. Every non-2xx response carries one JSON
// shape:
//
//	{"error": {"code": "...", "message": "...", "retry_after_ms": 1000}}
//
// with retry_after_ms present only on load-shedding 503s and the best
// achievable bounds present only on bound_unsatisfiable 422s. Every response
// echoes the request's X-Request-ID header (generating one when absent).
// docs/API.md is the complete field-by-field reference for the surface.
//
// # Bounded queries
//
// POST /v1/query accepts error_bound (maximum mean per-group relative error at
// a confidence level) and/or time_bound_ms (maximum predicted execution
// latency). The core planner enumerates candidate sample plans, predicts
// each one's error and latency, and executes the cheapest plan satisfying
// the bounds; the response reports the chosen plan plus predicted and
// achieved error, and an explain trace lists every candidate. Bounds no plan
// can satisfy fail fast with 422 and the best achievable figures. The
// accuracy semantics of these fields are specified in docs/ACCURACY.md.
//
// # Concurrency
//
// The handler serves any number of query, exact and metadata requests in
// parallel (net/http runs each request on its own goroutine). This is safe
// because shared state is either immutable, swapped atomically, or
// internally synchronised: the base database and every pre-built sample
// table never change once built, all per-request state — the parsed
// statement, the rewrite plan, partial and combined results, response
// buffers, the query trace — lives on the request's own goroutine (rewrite
// steps record into the trace under its lock), and the registered Prepared
// set sits behind an atomic pointer in core.System. A rebuild (POST
// /v1/admin/rebuild, or AutoRebuild on a timer) pre-processes a fresh sample
// generation in the background, swaps it in with core.SwapPrepared, and
// persists it to the sample catalog; queries in flight during the swap
// finish on the generation they started with. Set worker budgets
// (core.WorkerConfigurable) before calling Handler; that mutation is not
// synchronised.
//
// Each request may itself fan out: with a worker budget configured
// (SmallGroupConfig.Workers, or the -workers flag of aqpd), one query's
// rewritten UNION ALL steps execute as parallel partitioned scans. See
// ARCHITECTURE.md for the full concurrency model.
//
// # Deadlines and overload
//
// Every /v1/query and /v1/exact runs under a context derived from the request: a
// client disconnect, the server's Config.DefaultTimeout, or the request's
// own timeout_ms field cancels in-flight shard scans at the next shard
// boundary. A missed deadline returns 504 with a structured error; under
// deadline pressure the small-group strategy may instead degrade to the
// cheap uniform overall sample and flag "degraded": true. When
// Config.MaxInflight is set, excess concurrent queries are shed immediately
// with 503 + Retry-After rather than queueing unboundedly, and a panicking
// handler is recovered to a 500 without killing the process. See
// ARCHITECTURE.md §6.
//
// # Observability
//
// Runtime metrics live in the process-wide obs registry and are served at
// GET /metrics; every query carries an obs.Trace through the pipeline
// (parse → select → execute → combine → finalize → present) which an
// "explain": true request returns inline and GET /debug/slowlog retains for
// the slowest queries. See ARCHITECTURE.md §8.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"time"

	"dynsample/internal/core"
	"dynsample/internal/engine"
	"dynsample/internal/faults"
	"dynsample/internal/ingest"
	"dynsample/internal/obs"
	"dynsample/internal/sqlparse"
)

// DefaultStrategy is the strategy a zero-value Config serves.
const DefaultStrategy = "smallgroup"

// Config tunes the server. The zero value serves the DefaultStrategy with
// permissive robustness defaults: no deadline, no admission limit, a
// DefaultSlowLogSize slow-query log.
type Config struct {
	// Strategy is the registered strategy name /query answers with. Empty
	// means DefaultStrategy.
	Strategy string
	// DefaultTimeout bounds each /query and /exact unless the request
	// carries its own timeout_ms. Zero means no default deadline.
	DefaultTimeout time.Duration
	// MaxInflight caps concurrently executing /query + /exact requests;
	// excess requests are shed with 503 and a Retry-After header instead of
	// queueing. Zero means unlimited.
	MaxInflight int
	// RetryAfter is the Retry-After hint on shed requests; zero means 1s.
	RetryAfter time.Duration
	// SlowLogSize is how many of the slowest queries GET /debug/slowlog
	// retains. Zero means obs.DefaultSlowLogSize.
	SlowLogSize int
	// Rebuild enables zero-downtime sample rebuilds (/admin/rebuild and
	// AutoRebuild); the zero value disables them. See RebuildConfig.
	Rebuild RebuildConfig
	// Ingest, when non-nil, enables POST /ingest (live row appends backed by
	// the coordinator's WAL + online sample maintenance) and makes Rebuild go
	// through the coordinator's pin/tail handshake. When Rebuild is also
	// configured, the coordinator's drift trigger is pointed at this server's
	// background rebuild.
	Ingest *ingest.Coordinator
	// Shards > 0 puts the server in cluster shard mode: it serves one
	// partition of the fact table (stripe ShardID of Shards) and additionally
	// exposes GET /shard, the join summary a cluster coordinator fetches to
	// register this shard (see internal/cluster). ShardID must then be in
	// [0, Shards).
	Shards  int
	ShardID int
}

// Server routes HTTP requests to a core.System. Configuration fields are
// read-only after construction; the mutable state — the atomically swapped
// Prepared set inside core.System, the healthState atomics, the slow-query
// log — is synchronised, so one Server safely backs concurrent requests
// even while a rebuild swaps sample generations underneath them.
type Server struct {
	sys      *core.System
	strategy string
	cfg      Config
	inflight chan struct{} // admission semaphore; nil = unlimited
	slowlog  *obs.SlowLog
	health   healthState
	shard    shardSummary // generation-keyed GET /shard cache (shard mode)
}

// New returns a server over sys. The zero Config is valid: it serves the
// DefaultStrategy with no deadline and no admission limit. The system must
// be fully configured before the returned server starts handling requests;
// see the package comment for the concurrency contract.
func New(sys *core.System, cfg Config) *Server {
	if cfg.Strategy == "" {
		cfg.Strategy = DefaultStrategy
	}
	s := &Server{
		sys:      sys,
		strategy: cfg.Strategy,
		cfg:      cfg,
		slowlog:  obs.NewSlowLog(cfg.SlowLogSize),
	}
	if cfg.MaxInflight > 0 {
		s.inflight = make(chan struct{}, cfg.MaxInflight)
	}
	if cfg.Ingest != nil && cfg.Rebuild.Strategy != nil {
		// Drift past the bound means some rare value has outgrown its exact
		// small-group answer; rebuild in the background while ingest and
		// queries continue (the coordinator fires this at most once per
		// rebuild cycle, on its own goroutine).
		cfg.Ingest.SetOnDrift(func(float64) {
			if _, err := s.Rebuild(); err != nil {
				log.Printf("server: drift-triggered rebuild failed: %v", err)
			}
		})
	}
	return s
}

// SlowLog exposes the server's slow-query log (the store behind GET
// /debug/slowlog), so an operator CLI can mount it elsewhere.
func (s *Server) SlowLog() *obs.SlowLog { return s.slowlog }

// QueryRequest is the body of POST /query and POST /exact. See docs/API.md
// for the full field reference.
type QueryRequest struct {
	SQL string `json:"sql"`
	// Explain additionally returns the rewritten UNION ALL sample query and
	// the full pipeline trace (per-stage timings, the selected sample set
	// with per-table cost, sampling fraction, degradation, and — on bounded
	// queries — the planner's candidate list).
	Explain bool `json:"explain,omitempty"`
	// TimeoutMS, when present, overrides the server's default per-request
	// deadline for this query; it must be positive. A missed deadline
	// returns 504.
	TimeoutMS *int64 `json:"timeout_ms,omitempty"`
	// ErrorBound, when set, asks the planner for the cheapest plan whose
	// predicted mean per-group relative error (at the confidence level) is
	// at most this value, in (0, 1). /query only. When no plan qualifies the
	// request fails with 422 and the best achievable bound in the error
	// body. See docs/ACCURACY.md for what the prediction guarantees.
	ErrorBound float64 `json:"error_bound,omitempty"`
	// TimeBoundMS, when set, bounds the plan's predicted execution latency
	// in milliseconds; the planner picks the most accurate plan predicted to
	// fit (the cheapest satisfying plan when error_bound is also set).
	// /query only. Unlike timeout_ms it shapes the plan rather than
	// cancelling the request.
	TimeBoundMS int64 `json:"time_bound_ms,omitempty"`
	// Confidence is the confidence level error_bound and the returned
	// intervals are stated at, in (0, 1). Zero means the server's configured
	// level (default 0.95). Requires error_bound or time_bound_ms.
	Confidence float64 `json:"confidence,omitempty"`
	// Raw asks for the answer as raw merge-ready accumulators
	// (RawQueryResponse wrapping engine.ResultWire) instead of presented
	// groups. This is the shard-side wire format of the scatter-gather tier:
	// the coordinator needs every additive accumulator to re-merge shard
	// partials with Result.Merge, which the presented groups do not carry.
	Raw bool `json:"raw,omitempty"`
}

// bounded reports whether the request asks for planner bounds.
func (q *QueryRequest) bounded() bool {
	return q.ErrorBound != 0 || q.TimeBoundMS != 0 || q.Confidence != 0
}

// GroupJSON is one group of an answer.
type GroupJSON struct {
	Key    []string  `json:"key"`
	Values []float64 `json:"values"`
	Exact  bool      `json:"exact"`
	// CI holds [lo, hi] per value; omitted for exact queries.
	CI [][2]float64 `json:"ci,omitempty"`
}

// QueryResponse is the body returned by /query and /exact.
type QueryResponse struct {
	Columns   []string    `json:"columns"`
	Groups    []GroupJSON `json:"groups"`
	RowsRead  int64       `json:"rowsRead,omitempty"`
	ElapsedUS int64       `json:"elapsedMicros"`
	// Generation is the data generation (ingest batches applied) this answer
	// was computed against, so clients can correlate an answer with their
	// own writes.
	Generation uint64 `json:"generation"`
	Rewrite    string `json:"rewrite,omitempty"`
	// Degraded is set when deadline pressure made the strategy fall back to
	// the uniform overall sample instead of its full rewrite.
	Degraded bool `json:"degraded,omitempty"`
	// Plan names the planner-chosen sample plan; set on bounded queries.
	Plan string `json:"plan,omitempty"`
	// Predicted is the planner's predicted mean per-group relative error for
	// the chosen plan; set on bounded queries.
	Predicted *float64 `json:"predicted,omitempty"`
	// Achieved is the realized error estimate, derived from the answer's
	// confidence intervals; set on bounded queries.
	Achieved *float64 `json:"achieved,omitempty"`
	// Partial is set by a cluster coordinator when one or more shards did
	// not contribute to this answer; the estimates cover only the surviving
	// shards and Predicted/Achieved are widened accordingly. Single-process
	// servers never set it.
	Partial bool `json:"partial,omitempty"`
	// MissingShards lists the shard ids that did not contribute when Partial
	// is set.
	MissingShards []int `json:"missing_shards,omitempty"`
	// Trace is the pipeline trace, returned when the request set
	// "explain": true.
	Trace *obs.TraceData `json:"trace,omitempty"`
}

// ErrorDetail is the payload of the error envelope: a stable
// machine-readable code, human-readable detail, and — on load shedding —
// the retry hint mirrored from the Retry-After header.
type ErrorDetail struct {
	Code         string `json:"code"`
	Message      string `json:"message"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
	// BestErrorBound, on bound_unsatisfiable errors, is the smallest
	// error_bound any plan could have satisfied under the request's time
	// bound — the value to retry with.
	BestErrorBound *float64 `json:"best_error_bound,omitempty"`
	// BestTimeBoundMS, on bound_unsatisfiable errors, is the smallest
	// time_bound_ms any plan could have satisfied under the request's error
	// bound.
	BestTimeBoundMS *int64 `json:"best_time_bound_ms,omitempty"`
}

// ErrorResponse is the one JSON shape every non-2xx response carries:
// {"error":{"code":..., "message":..., "retry_after_ms":...}}.
type ErrorResponse struct {
	Error ErrorDetail `json:"error"`
}

// Error codes used in ErrorDetail.Code.
const (
	CodeBadRequest         = "bad_request"
	CodeNotFound           = "not_found"
	CodeDeadlineExceeded   = "deadline_exceeded"
	CodeOverloaded         = "overloaded"
	CodeInternal           = "internal"
	CodeUnimplemented      = "unimplemented"
	CodeBoundUnsatisfiable = "bound_unsatisfiable"
	// CodeIngestDegraded marks ingest refused because a disk fault put the
	// WAL into read-only degraded mode; the request is retryable (503 +
	// Retry-After) and ingest self-recovers once the disk heals.
	CodeIngestDegraded = "ingest_degraded"
)

// Handler returns the HTTP routes — the /v1 client surface plus the
// unversioned probes and telemetry — wrapped in the request-ID and
// panic-recovery middleware; /v1/query and /v1/exact additionally pass
// through admission control.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/query", s.admit("query", s.handleQuery))
	mux.HandleFunc("POST /v1/exact", s.admit("exact", s.handleExact))
	mux.HandleFunc("GET /v1/columns", s.handleColumns)
	mux.HandleFunc("GET /v1/strategies", s.handleStrategies)
	mux.HandleFunc("POST /v1/admin/rebuild", s.handleRebuild)
	mux.HandleFunc("POST /v1/ingest", s.handleIngest)
	if s.cfg.Shards > 0 {
		mux.HandleFunc("GET /v1/shard", s.handleShard)
	}
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.Handle("GET /metrics", obs.Handler(obs.Default()))
	mux.HandleFunc("GET /debug/slowlog", s.handleSlowlog)
	// Catch-all so unknown paths get the error envelope, not a plain-text
	// 404.
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusNotFound, CodeNotFound,
			fmt.Errorf("no route for %s %s", r.Method, r.URL.Path))
	})
	return requestID(recoverPanics(mux))
}

// requestID accepts the client's X-Request-ID (or generates one), echoes it
// on the response, and threads it through the context so traces, slow-log
// entries and panic logs can correlate with client-side logs.
func requestID(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := sanitizeRequestID(r.Header.Get("X-Request-ID"))
		if id == "" {
			id = obs.NewRequestID()
		}
		w.Header().Set("X-Request-ID", id)
		h.ServeHTTP(w, r.WithContext(obs.WithRequestID(r.Context(), id)))
	})
}

// sanitizeRequestID bounds a client-supplied identifier: printable ASCII
// only, at most 128 bytes, so a hostile header cannot inject into logs or
// response headers.
func sanitizeRequestID(id string) string {
	if len(id) > 128 {
		id = id[:128]
	}
	for i := 0; i < len(id); i++ {
		if id[i] < 0x20 || id[i] > 0x7e {
			return ""
		}
	}
	return id
}

// recoverPanics converts a panic on the request goroutine into a 500 so one
// poisoned request cannot take down the process; the panic is counted and
// logged with the request ID. If the handler had already written a response
// prefix the error body is appended to it — the client sees a malformed
// payload, which is the best that can be done post-commit.
func recoverPanics(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				obsPanics.Inc()
				log.Printf("server: recovered panic (request_id=%s %s %s): %v",
					obs.RequestIDFrom(r.Context()), r.Method, r.URL.Path, v)
				writeError(w, http.StatusInternalServerError, CodeInternal,
					fmt.Errorf("internal error: recovered panic: %v", v))
			}
		}()
		h.ServeHTTP(w, r)
	})
}

// admit applies the MaxInflight admission semaphore: requests beyond the cap
// are shed immediately with 503 + Retry-After (load shedding beats unbounded
// queueing — queued requests would miss their deadlines anyway and drag down
// admitted ones). Admitted requests are counted by the in-flight gauge.
func (s *Server) admit(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.inflight != nil {
			select {
			case s.inflight <- struct{}{}:
				defer func() { <-s.inflight }()
			default:
				s.shed(w, endpoint)
				return
			}
		}
		obsInflight.Add(1)
		defer obsInflight.Add(-1)
		h(w, r)
	}
}

// shed rejects one request at the admission gate with 503 + Retry-After.
func (s *Server) shed(w http.ResponseWriter, endpoint string) {
	obsShed.Inc()
	obsQueries.With(endpoint, s.strategy, "shed").Inc()
	secs := retryAfterSecs(s.cfg.RetryAfter, time.Second)
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeErrorRetry(w, http.StatusServiceUnavailable, CodeOverloaded, int64(secs)*1000,
		fmt.Errorf("server at max in-flight queries (%d); retry after %ds", s.cfg.MaxInflight, secs))
}

// retryAfterSecs converts a configured Retry-After hint (falling back when
// unset) to whole seconds and adds jitter in [secs, 2·secs]. Without jitter
// every client rejected in the same overload spike retries in the same
// second and re-creates the spike; the spread halves the synchronized
// retry rate at the cost of at most doubling one client's wait.
func retryAfterSecs(configured, fallback time.Duration) int {
	retry := configured
	if retry <= 0 {
		retry = fallback
	}
	secs := int(retry.Round(time.Second) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs + rand.Intn(secs+1)
}

// reqTrack carries the observability record of one /query or /exact request
// from first byte to response: the pipeline trace plus the terminal status
// and row accounting the metrics and slow log need.
type reqTrack struct {
	s        *Server
	endpoint string
	start    time.Time
	trace    *obs.Trace
	status   string
	rowsRead int64
}

// begin starts tracking one request. The trace is attached to the execution
// context by the handler so every pipeline layer below records into it.
func (s *Server) begin(r *http.Request, endpoint string) *reqTrack {
	rt := &reqTrack{
		s:        s,
		endpoint: endpoint,
		start:    time.Now(),
		trace:    obs.NewTrace(obs.RequestIDFrom(r.Context()), ""),
		status:   "internal",
	}
	return rt
}

// finish closes the trace with the terminal status, records the request's
// metrics, offers the query to the slow log, and returns the completed
// trace snapshot for an explain response. Call exactly once per request.
func (rt *reqTrack) finish() obs.TraceData {
	data := rt.trace.Finish(rt.status)
	elapsed := time.Since(rt.start)
	obsQueries.With(rt.endpoint, rt.s.strategy, rt.status).Inc()
	obsLatency.With(rt.endpoint).Observe(elapsed.Seconds())
	if rt.rowsRead > 0 {
		obsRowsScanned.With(rt.endpoint).Add(uint64(rt.rowsRead))
	}
	if rt.status == "timeout" {
		obsTimeouts.Inc()
	}
	if data.SQL != "" { // never log requests that failed before decoding
		rt.s.slowlog.Observe(obs.SlowLogEntry{
			Time:      rt.start,
			RequestID: data.RequestID,
			SQL:       data.SQL,
			Status:    rt.status,
			Micros:    data.TotalMicros,
			Trace:     data,
		})
	}
	return data
}

func (s *Server) compile(rt *reqTrack, w http.ResponseWriter, r *http.Request) (*sqlparse.Compiled, *QueryRequest, bool) {
	endStage := rt.trace.StartStage("parse")
	defer endStage()
	bad := func(err error) (*sqlparse.Compiled, *QueryRequest, bool) {
		rt.status = "bad_request"
		writeError(w, http.StatusBadRequest, CodeBadRequest, err)
		return nil, nil, false
	}
	var req QueryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return bad(fmt.Errorf("bad request body: %w", err))
	}
	rt.trace.SetSQL(req.SQL)
	if req.TimeoutMS != nil && *req.TimeoutMS <= 0 {
		return bad(fmt.Errorf("invalid timeout_ms %d: must be > 0", *req.TimeoutMS))
	}
	if req.ErrorBound < 0 || req.ErrorBound >= 1 {
		return bad(fmt.Errorf("invalid error_bound %g: must be in (0, 1)", req.ErrorBound))
	}
	if req.TimeBoundMS < 0 {
		return bad(fmt.Errorf("invalid time_bound_ms %d: must be > 0", req.TimeBoundMS))
	}
	if req.Confidence < 0 || req.Confidence >= 1 {
		return bad(fmt.Errorf("invalid confidence %g: must be in (0, 1)", req.Confidence))
	}
	if req.Confidence != 0 && req.ErrorBound == 0 && req.TimeBoundMS == 0 {
		return bad(fmt.Errorf("confidence requires error_bound or time_bound_ms"))
	}
	if strings.TrimSpace(req.SQL) == "" {
		return bad(fmt.Errorf("empty sql"))
	}
	stmt, err := sqlparse.Parse(strings.TrimSuffix(strings.TrimSpace(req.SQL), ";"))
	if err != nil {
		return bad(err)
	}
	compiled, err := sqlparse.Compile(stmt, s.sys.DB())
	if err != nil {
		return bad(err)
	}
	return compiled, &req, true
}

// queryContext derives the execution context for one request: the request's
// own context (cancelled when the client disconnects) bounded by timeout_ms
// if given, else by the server default.
func (s *Server) queryContext(r *http.Request, req *QueryRequest) (context.Context, context.CancelFunc) {
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS != nil {
		timeout = time.Duration(*req.TimeoutMS) * time.Millisecond
	}
	if timeout > 0 {
		return context.WithTimeout(r.Context(), timeout)
	}
	return r.Context(), func() {}
}

// writeExecErr maps an execution error to a status: 504 for a missed
// deadline, nothing at all for a vanished client (the connection is gone;
// any body would be discarded), 500 otherwise. It returns the terminal
// status label for the request's metrics.
func writeExecErr(w http.ResponseWriter, r *http.Request, err error) (status string) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, CodeDeadlineExceeded,
			fmt.Errorf("query deadline exceeded: %w", err))
		return "timeout"
	case errors.Is(err, context.Canceled) && r.Context().Err() != nil:
		// Client went away; nothing useful to write.
		return "canceled"
	default:
		writeError(w, http.StatusInternalServerError, CodeInternal, err)
		return "error"
	}
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	faults.Fire(r.Context(), faults.PointHandler, 0)
	if s.cfg.Shards > 0 {
		faults.Fire(r.Context(), faults.PointShardRequest, s.cfg.ShardID)
	}
	rt := s.begin(r, "query")
	rt.trace.SetStrategy(s.strategy)
	compiled, req, ok := s.compile(rt, w, r)
	if !ok {
		rt.finish()
		return
	}
	ctx, cancel := s.queryContext(r, req)
	defer cancel()
	// Read the generation before executing: the answer is then guaranteed to
	// include at least every batch up to it.
	gen := s.sys.DataGeneration()
	bounds := core.Bounds{
		ErrorBound: req.ErrorBound,
		TimeBound:  time.Duration(req.TimeBoundMS) * time.Millisecond,
		Confidence: req.Confidence,
	}
	ans, err := s.sys.ApproxBoundsCtx(obs.WithTrace(ctx, rt.trace), s.strategy, compiled.Query, bounds)
	if err != nil {
		var unsat *core.UnsatisfiableBoundsError
		if errors.As(err, &unsat) {
			rt.status = "unsatisfiable"
			writeUnsatisfiable(w, unsat)
		} else {
			rt.status = writeExecErr(w, r, err)
		}
		rt.finish()
		return
	}
	if req.Raw {
		raw := RawQueryResponse{
			Result:     ans.Result.Wire(),
			RowsRead:   ans.RowsRead,
			ElapsedUS:  ans.Elapsed.Microseconds(),
			Generation: gen,
			Degraded:   ans.Degraded,
		}
		if d := ans.Plan; d != nil {
			predicted, achieved := d.Chosen.PredictedError, d.AchievedError
			raw.Plan = d.Chosen.Name
			raw.Predicted, raw.Achieved = &predicted, &achieved
		}
		rt.status, rt.rowsRead = "ok", ans.RowsRead
		rt.finish()
		s.writeShardJSON(w, raw)
		return
	}
	endStage := rt.trace.StartStage("present")
	resp := QueryResponse{
		Columns:    outputNames(compiled),
		RowsRead:   ans.RowsRead,
		ElapsedUS:  ans.Elapsed.Microseconds(),
		Generation: gen,
		Degraded:   ans.Degraded,
	}
	for _, g := range compiled.Present(ans.Result) {
		key := engine.EncodeKey(g.Key)
		gj := GroupJSON{Exact: g.Exact}
		for _, v := range g.Key {
			gj.Key = append(gj.Key, strings.Trim(v.String(), "'"))
		}
		for _, o := range compiled.Outputs {
			switch o.Kind {
			case sqlparse.OutAgg:
				gj.Values = append(gj.Values, g.Vals[o.AggIndex])
				iv := ans.Interval(key, o.AggIndex)
				gj.CI = append(gj.CI, [2]float64{iv.Lo, iv.Hi})
			case sqlparse.OutAvg:
				avg := 0.0
				if g.Vals[o.DenIndex] != 0 {
					avg = g.Vals[o.NumIndex] / g.Vals[o.DenIndex]
				}
				gj.Values = append(gj.Values, avg)
				gj.CI = append(gj.CI, [2]float64{avg, avg})
			}
		}
		resp.Groups = append(resp.Groups, gj)
	}
	if d := ans.Plan; d != nil {
		resp.Plan = d.Chosen.Name
		predicted, achieved := d.Chosen.PredictedError, d.AchievedError
		resp.Predicted, resp.Achieved = &predicted, &achieved
	}
	endStage()
	rt.status, rt.rowsRead = "ok", ans.RowsRead
	trace := rt.finish()
	if req.Explain {
		if ans.Rewrite != nil {
			resp.Rewrite = ans.Rewrite.SQL()
		}
		resp.Trace = &trace
	}
	writeJSON(w, resp)
}

// writeUnsatisfiable emits the 422 envelope for bounds no plan can satisfy,
// carrying the best achievable figures so the client can retry realistically.
func writeUnsatisfiable(w http.ResponseWriter, unsat *core.UnsatisfiableBoundsError) {
	bestErr := unsat.BestError
	bestMS := (unsat.BestLatency + time.Millisecond - 1) / time.Millisecond
	bestMSv := int64(bestMS)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusUnprocessableEntity)
	json.NewEncoder(w).Encode(ErrorResponse{Error: ErrorDetail{
		Code:            CodeBoundUnsatisfiable,
		Message:         unsat.Error(),
		BestErrorBound:  &bestErr,
		BestTimeBoundMS: &bestMSv,
	}})
}

func (s *Server) handleExact(w http.ResponseWriter, r *http.Request) {
	rt := s.begin(r, "exact")
	rt.trace.SetStrategy("exact")
	compiled, req, ok := s.compile(rt, w, r)
	if !ok {
		rt.finish()
		return
	}
	if req.bounded() {
		rt.status = "bad_request"
		writeError(w, http.StatusBadRequest, CodeBadRequest,
			fmt.Errorf("error_bound/time_bound_ms/confidence apply to /query only; /exact always scans the base table"))
		rt.finish()
		return
	}
	ctx, cancel := s.queryContext(r, req)
	defer cancel()
	gen := s.sys.DataGeneration()
	endStage := rt.trace.StartStage("execute")
	res, elapsed, err := s.sys.ExactCtx(ctx, compiled.Query)
	endStage()
	if err != nil {
		rt.status = writeExecErr(w, r, err)
		rt.finish()
		return
	}
	if req.Raw {
		raw := RawQueryResponse{
			Result:     res.Wire(),
			RowsRead:   res.RowsScanned,
			ElapsedUS:  elapsed.Microseconds(),
			Generation: gen,
		}
		rt.status, rt.rowsRead = "ok", res.RowsScanned
		rt.trace.SetRowsRead(res.RowsScanned)
		rt.finish()
		s.writeShardJSON(w, raw)
		return
	}
	// Mirror /query: RowsRead from the engine result and elapsed measured
	// around engine execution only, so the two endpoints' numbers are
	// directly comparable in speedup tables.
	endStage = rt.trace.StartStage("present")
	resp := QueryResponse{
		Columns:    outputNames(compiled),
		RowsRead:   res.RowsScanned,
		ElapsedUS:  elapsed.Microseconds(),
		Generation: gen,
	}
	for _, g := range compiled.Present(res) {
		gj := GroupJSON{Exact: true}
		for _, v := range g.Key {
			gj.Key = append(gj.Key, strings.Trim(v.String(), "'"))
		}
		for _, o := range compiled.Outputs {
			switch o.Kind {
			case sqlparse.OutAgg:
				gj.Values = append(gj.Values, g.Vals[o.AggIndex])
			case sqlparse.OutAvg:
				avg := 0.0
				if g.Vals[o.DenIndex] != 0 {
					avg = g.Vals[o.NumIndex] / g.Vals[o.DenIndex]
				}
				gj.Values = append(gj.Values, avg)
			}
		}
		resp.Groups = append(resp.Groups, gj)
	}
	endStage()
	rt.status, rt.rowsRead = "ok", res.RowsScanned
	rt.trace.SetRowsRead(res.RowsScanned)
	trace := rt.finish()
	if req.Explain {
		resp.Trace = &trace
	}
	writeJSON(w, resp)
}

func (s *Server) handleColumns(w http.ResponseWriter, _ *http.Request) {
	db := s.sys.DB()
	// Types let ingest clients (aqpcli ingest) encode CSV cells correctly
	// without guessing whether "123" is a string or a number.
	types := map[string]string{}
	for _, name := range db.Columns() {
		if t, err := db.ColumnType(name); err == nil {
			types[name] = t.String()
		}
	}
	writeJSON(w, map[string]any{
		"database": db.Name,
		"rows":     db.NumRows(),
		"columns":  db.Columns(),
		"types":    types,
	})
}

func (s *Server) handleStrategies(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, map[string]any{"strategies": s.sys.Strategies(), "active": s.strategy})
}

// SlowLogResponse is the body of GET /debug/slowlog.
type SlowLogResponse struct {
	// Capacity is how many entries the log retains.
	Capacity int `json:"capacity"`
	// Entries are the slowest queries seen so far, slowest first, each with
	// its full pipeline trace.
	Entries []obs.SlowLogEntry `json:"entries"`
}

func (s *Server) handleSlowlog(w http.ResponseWriter, _ *http.Request) {
	entries := s.slowlog.Slowest()
	if entries == nil {
		entries = []obs.SlowLogEntry{}
	}
	writeJSON(w, SlowLogResponse{Capacity: s.slowlog.Size(), Entries: entries})
}

func outputNames(c *sqlparse.Compiled) []string {
	var names []string
	for _, o := range c.Outputs {
		names = append(names, o.Name)
	}
	return names
}

// writeJSON encodes v fully before touching the ResponseWriter, so an encode
// failure yields a clean 500 instead of a half-written 200 body with error
// text appended.
func writeJSON(w http.ResponseWriter, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(b, '\n'))
}

// writeError emits the error envelope with the given status and code.
func writeError(w http.ResponseWriter, status int, code string, err error) {
	writeErrorRetry(w, status, code, 0, err)
}

func writeErrorRetry(w http.ResponseWriter, status int, code string, retryAfterMS int64, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(ErrorResponse{Error: ErrorDetail{
		Code:         code,
		Message:      err.Error(),
		RetryAfterMS: retryAfterMS,
	}})
}
