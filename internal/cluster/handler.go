package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"dynsample/internal/core"
	"dynsample/internal/engine"
	"dynsample/internal/obs"
	"dynsample/internal/server"
	"dynsample/internal/sqlparse"
	"dynsample/internal/stats"
)

// Handler returns the coordinator's routes: the same /v1 client surface as
// a single-node server for /v1/query, /v1/exact and /v1/columns (a client
// should not need to know it is talking to a cluster), plus the
// cluster-specific GET /v1/shards and POST /v1/admin/probe. Wrapped in the
// server's request-ID and panic-recovery middleware so both tiers share one
// envelope discipline.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/query", c.handleQuery)
	mux.HandleFunc("POST /v1/exact", c.handleExact)
	mux.HandleFunc("GET /v1/columns", c.handleColumns)
	mux.HandleFunc("GET /v1/shards", c.handleShards)
	mux.HandleFunc("POST /v1/admin/probe", c.handleProbe)
	mux.HandleFunc("GET /healthz", c.handleHealthz)
	mux.HandleFunc("GET /readyz", c.handleReadyz)
	mux.Handle("GET /metrics", obs.Handler(obs.Default()))
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		server.WriteError(w, http.StatusNotFound, server.CodeNotFound,
			fmt.Errorf("no route for %s %s", r.Method, r.URL.Path))
	})
	return server.Wrap(mux)
}

// compileRequest decodes and validates one client request against the
// cluster schema. Numeric bound validation is left to the shards (their
// envelopes are relayed verbatim on fatal errors), but parse/compile errors
// fail here, before any fan-out. Returns nil compiled after writing the
// error; label is the metrics status in that case.
func (c *Coordinator) compileRequest(w http.ResponseWriter, r *http.Request) (*sqlparse.Compiled, *server.QueryRequest, string) {
	schema := c.schema.Load()
	if schema == nil {
		c.unavailable(w, fmt.Errorf("no shard has joined yet; cluster schema unknown"))
		return nil, nil, "unavailable"
	}
	var req server.QueryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		server.WriteError(w, http.StatusBadRequest, server.CodeBadRequest,
			fmt.Errorf("bad request body: %w", err))
		return nil, nil, "bad_request"
	}
	if req.Raw {
		server.WriteError(w, http.StatusBadRequest, server.CodeBadRequest,
			fmt.Errorf("raw responses are shard-internal; the coordinator returns presented groups"))
		return nil, nil, "bad_request"
	}
	if strings.TrimSpace(req.SQL) == "" {
		server.WriteError(w, http.StatusBadRequest, server.CodeBadRequest, fmt.Errorf("empty sql"))
		return nil, nil, "bad_request"
	}
	stmt, err := sqlparse.Parse(strings.TrimSuffix(strings.TrimSpace(req.SQL), ";"))
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, server.CodeBadRequest, err)
		return nil, nil, "bad_request"
	}
	compiled, err := sqlparse.Compile(stmt, schema)
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, server.CodeBadRequest, err)
		return nil, nil, "bad_request"
	}
	return compiled, &req, ""
}

// unavailable writes the 503 + jittered Retry-After the cluster emits when
// it cannot answer at all.
func (c *Coordinator) unavailable(w http.ResponseWriter, err error) {
	secs := server.RetryAfterSecs(c.cfg.RetryAfter, time.Second)
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	server.WriteErrorRetry(w, http.StatusServiceUnavailable, CodeShardUnavailable,
		int64(secs)*1000, err)
}

// relayShardError forwards a fatal shard envelope verbatim: the shard
// already said precisely what is wrong with the request (bad SQL, unknown
// column, unsatisfiable bounds with the best achievable figures), and every
// shard would say the same.
func relayShardError(w http.ResponseWriter, e *shardError) {
	if len(e.body) > 0 && json.Valid(e.body) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(e.status)
		w.Write(e.body)
		return
	}
	server.WriteError(w, e.status, server.CodeInternal, e)
}

// partition splits the cluster for one query: shards provably irrelevant to
// its predicates (pruned), shards whose breaker is open (skipped — they
// count as missing), and the fan-out targets.
func (c *Coordinator) partition(q *engine.Query) (targets, pruned, skipped []*shard) {
	for _, sh := range c.shards {
		switch {
		case prunable(q, sh.summary()):
			pruned = append(pruned, sh)
		case !sh.br.Allow():
			skipped = append(skipped, sh)
		default:
			targets = append(targets, sh)
		}
	}
	obsPruned.Add(uint64(len(pruned)))
	return targets, pruned, skipped
}

// prunable reports whether the shard's summary proves it holds no row
// matching q: some equality/IN predicate over a string column whose complete
// value set excludes every predicate value. MayContain errs toward true
// (truncated or absent summaries prove nothing), so pruning can only skip
// provably-empty work — pruned is never missing.
func prunable(q *engine.Query, st *core.ShardStats) bool {
	if st == nil {
		return false
	}
	for _, p := range q.Where {
		col, vals := equalityStrings(p)
		if len(vals) == 0 {
			continue
		}
		possible := false
		for _, v := range vals {
			if st.MayContain(col, v) {
				possible = true
				break
			}
		}
		if !possible {
			return true
		}
	}
	return false
}

// equalityStrings extracts the string value set of an equality or IN
// predicate; other predicate forms return nothing and are not pruned on.
func equalityStrings(p engine.Predicate) (string, []string) {
	switch t := p.(type) {
	case *engine.InPredicate:
		var out []string
		for _, v := range t.Values() {
			if v.T != engine.String {
				return "", nil
			}
			out = append(out, v.S)
		}
		return t.Col, out
	case *engine.CmpPredicate:
		if t.Op == engine.Eq && t.Val.T == engine.String {
			return t.Col, []string{t.Val.S}
		}
	}
	return "", nil
}

// fanOut runs one query against every target concurrently and returns the
// per-shard outcomes indexed by shard id.
func (c *Coordinator) fanOut(r *http.Request, path string, req *server.QueryRequest, targets []*shard, exact bool) ([]*rawAnswer, []error) {
	ctx := r.Context()
	timeout := c.cfg.DefaultTimeout
	if req.TimeoutMS != nil && *req.TimeoutMS > 0 {
		timeout = time.Duration(*req.TimeoutMS) * time.Millisecond
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	answers := make([]*rawAnswer, len(c.shards))
	errs := make([]error, len(c.shards))
	var wg sync.WaitGroup
	for _, sh := range targets {
		wg.Add(1)
		go func(sh *shard) {
			defer wg.Done()
			perTry := sh.perTryTimeout(req, exact)
			answers[sh.id], errs[sh.id] = sh.do(ctx, path, shardBody(req, perTry), perTry)
		}(sh)
	}
	wg.Wait()
	return answers, errs
}

func (c *Coordinator) handleQuery(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	status := "error"
	defer func() { obsQueries.With("query", status).Inc() }()
	compiled, req, label := c.compileRequest(w, r)
	if compiled == nil {
		status = label
		return
	}
	targets, pruned, skipped := c.partition(compiled.Query)
	answers, errs := c.fanOut(r, "/v1/query", req, targets, false)

	// A fatal error is a property of the request; relay the first one.
	for _, sh := range targets {
		if se, ok := errs[sh.id].(*shardError); ok && se.fatal() {
			status = "fatal"
			relayShardError(w, se)
			return
		}
	}
	var contributing, missing []*shard
	missing = append(missing, skipped...)
	for _, sh := range targets {
		if answers[sh.id] != nil {
			contributing = append(contributing, sh)
		} else {
			missing = append(missing, sh)
		}
	}
	if len(contributing) == 0 {
		status = "unavailable"
		c.unavailable(w, unavailableErr(missing, len(pruned)))
		return
	}
	merged, meta, err := mergeAnswers(contributing, answers)
	if err != nil {
		status = "error"
		server.WriteError(w, http.StatusInternalServerError, server.CodeInternal, err)
		return
	}
	partial := len(missing) > 0
	if partial {
		obsPartial.Inc()
		demoteExact(merged, compiled.Query.GroupBy, missing)
	}

	ivs := core.ConfidenceIntervals(merged, req.Confidence)
	achieved := core.AchievedError(merged, ivs)
	resp := server.QueryResponse{
		Columns:    outputNames(compiled),
		RowsRead:   meta.rowsRead,
		ElapsedUS:  time.Since(start).Microseconds(),
		Generation: meta.generation,
		Degraded:   meta.degraded,
		Plan:       meta.plan,
		Partial:    partial,
	}
	if partial {
		f := missingFraction(contributing, missing)
		achieved = core.WidenError(achieved, f)
		if meta.predicted != nil {
			p := core.WidenError(*meta.predicted, f)
			meta.predicted = &p
		}
		resp.MissingShards = shardIDs(missing)
		// A partial answer always states its (widened) realized error, even
		// on unbounded queries — the client must be able to see what the
		// holes cost.
		resp.Achieved = &achieved
	} else if meta.predicted != nil {
		resp.Achieved = &achieved
	}
	resp.Predicted = meta.predicted
	presentInto(&resp, compiled, merged, ivs, false)
	if partial {
		status = "partial"
	} else {
		status = "ok"
	}
	server.WriteJSON(w, resp)
}

func (c *Coordinator) handleExact(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	status := "error"
	defer func() { obsQueries.With("exact", status).Inc() }()
	compiled, req, label := c.compileRequest(w, r)
	if compiled == nil {
		status = label
		return
	}
	if req.ErrorBound != 0 || req.TimeBoundMS != 0 || req.Confidence != 0 {
		status = "bad_request"
		server.WriteError(w, http.StatusBadRequest, server.CodeBadRequest,
			fmt.Errorf("error_bound/time_bound_ms/confidence apply to /query only; /exact always scans the base table"))
		return
	}
	targets, _, skipped := c.partition(compiled.Query)
	// Exact refuses to degrade: an exact answer computed over a subset of
	// the data would be silently wrong, which is worse than no answer.
	if len(skipped) > 0 {
		status = "unavailable"
		c.unavailable(w, fmt.Errorf("exact query needs every shard; shards %v are unavailable (circuit open)",
			shardIDs(skipped)))
		return
	}
	answers, errs := c.fanOut(r, "/v1/exact", req, targets, true)
	var failed []*shard
	for _, sh := range targets {
		if se, ok := errs[sh.id].(*shardError); ok && se.fatal() {
			status = "fatal"
			relayShardError(w, se)
			return
		}
		if answers[sh.id] == nil {
			failed = append(failed, sh)
		}
	}
	if len(failed) > 0 {
		status = "unavailable"
		c.unavailable(w, unavailableErr(failed, 0))
		return
	}
	merged, meta, err := mergeAnswers(targets, answers)
	if err != nil {
		server.WriteError(w, http.StatusInternalServerError, server.CodeInternal, err)
		return
	}
	resp := server.QueryResponse{
		Columns:    outputNames(compiled),
		RowsRead:   meta.rowsRead,
		ElapsedUS:  time.Since(start).Microseconds(),
		Generation: meta.generation,
	}
	presentInto(&resp, compiled, merged, nil, true)
	status = "ok"
	server.WriteJSON(w, resp)
}

// mergedMeta aggregates the scalar answer metadata across contributions.
type mergedMeta struct {
	rowsRead   int64
	generation uint64
	degraded   bool
	plan       string
	predicted  *float64
}

// mergeAnswers merges the contributing shards' results in ascending shard-id
// order (deterministic output) and folds their metadata: rows sum,
// generation is the minimum (the answer includes at least every batch up to
// it on every shard), degraded ORs, predicted error takes the conservative
// maximum, and plan is the shared name or "mixed".
func mergeAnswers(contributing []*shard, answers []*rawAnswer) (*engine.Result, mergedMeta, error) {
	var meta mergedMeta
	var merged *engine.Result
	maxPred := math.Inf(-1)
	for _, sh := range contributing {
		ans := answers[sh.id]
		if merged == nil {
			merged = ans.res
		} else if err := merged.Merge(ans.res); err != nil {
			return nil, meta, fmt.Errorf("merging shard %d: %w", sh.id, err)
		}
		meta.rowsRead += ans.raw.RowsRead
		meta.degraded = meta.degraded || ans.raw.Degraded
		if meta.generation == 0 || ans.raw.Generation < meta.generation {
			meta.generation = ans.raw.Generation
		}
		if ans.raw.Plan != "" {
			switch meta.plan {
			case "", ans.raw.Plan:
				meta.plan = ans.raw.Plan
			default:
				meta.plan = "mixed"
			}
		}
		if ans.raw.Predicted != nil && *ans.raw.Predicted > maxPred {
			maxPred = *ans.raw.Predicted
		}
	}
	if !math.IsInf(maxPred, -1) {
		meta.predicted = &maxPred
	}
	return merged, meta, nil
}

// demoteExact clears the Exact flag of any merged group a missing shard may
// still hold rows for: the surviving shards' exact small-group answer is no
// longer the whole truth. Only a missing shard whose complete value sets
// exclude the group's key values provably cannot contribute.
func demoteExact(res *engine.Result, groupBy []string, missing []*shard) {
	for _, g := range res.Groups() {
		if !g.Exact {
			continue
		}
		for _, sh := range missing {
			if shardMayHoldGroup(sh.summary(), groupBy, g.Key) {
				g.Exact = false
				break
			}
		}
	}
}

func shardMayHoldGroup(st *core.ShardStats, groupBy []string, key []engine.Value) bool {
	if st == nil {
		return true
	}
	for i, col := range groupBy {
		if i >= len(key) || key[i].T != engine.String {
			continue
		}
		if !st.MayContain(col, key[i].S) {
			return false
		}
	}
	return true
}

// presentInto renders the merged result into the client response exactly
// like a single-node server would, with intervals recomputed from the merged
// accumulators (intervals are not additive; accumulators are).
func presentInto(resp *server.QueryResponse, compiled *sqlparse.Compiled, merged *engine.Result,
	ivs map[engine.GroupKey][]stats.Interval, exact bool) {
	for _, g := range compiled.Present(merged) {
		key := engine.EncodeKey(g.Key)
		gj := server.GroupJSON{Exact: exact || g.Exact}
		for _, v := range g.Key {
			gj.Key = append(gj.Key, strings.Trim(v.String(), "'"))
		}
		for _, o := range compiled.Outputs {
			switch o.Kind {
			case sqlparse.OutAgg:
				v := g.Vals[o.AggIndex]
				gj.Values = append(gj.Values, v)
				if !exact {
					gj.CI = append(gj.CI, groupInterval(ivs, key, o.AggIndex, v))
				}
			case sqlparse.OutAvg:
				avg := 0.0
				if g.Vals[o.DenIndex] != 0 {
					avg = g.Vals[o.NumIndex] / g.Vals[o.DenIndex]
				}
				gj.Values = append(gj.Values, avg)
				if !exact {
					gj.CI = append(gj.CI, [2]float64{avg, avg})
				}
			}
		}
		resp.Groups = append(resp.Groups, gj)
	}
}

func groupInterval(ivs map[engine.GroupKey][]stats.Interval, key engine.GroupKey, agg int, v float64) [2]float64 {
	if group, ok := ivs[key]; ok && agg < len(group) {
		return [2]float64{group[agg].Lo, group[agg].Hi}
	}
	return [2]float64{v, v}
}

func unavailableErr(missing []*shard, pruned int) error {
	parts := make([]string, 0, len(missing))
	for _, sh := range missing {
		sh.mu.Lock()
		last := sh.lastErr
		sh.mu.Unlock()
		if last != nil {
			parts = append(parts, fmt.Sprintf("shard %d: %v", sh.id, last))
		} else {
			parts = append(parts, fmt.Sprintf("shard %d: circuit open", sh.id))
		}
	}
	if pruned > 0 {
		return fmt.Errorf("no shard available to answer (%d pruned as irrelevant): %s",
			pruned, strings.Join(parts, "; "))
	}
	return fmt.Errorf("no shard available to answer: %s", strings.Join(parts, "; "))
}

func outputNames(c *sqlparse.Compiled) []string {
	var names []string
	for _, o := range c.Outputs {
		names = append(names, o.Name)
	}
	return names
}

// ShardStatus is one entry of GET /shards and /healthz: the operator's view
// of a cluster member.
type ShardStatus struct {
	ID    int    `json:"id"`
	Addr  string `json:"addr"`
	State string `json:"state"`
	// Joined is true once the shard has ever registered a summary.
	Joined     bool   `json:"joined"`
	Rows       int64  `json:"rows,omitempty"`
	SampleRows int64  `json:"sample_rows,omitempty"`
	Generation uint64 `json:"generation,omitempty"`
	LastError  string `json:"last_error,omitempty"`
}

func (c *Coordinator) shardStatuses() []ShardStatus {
	out := make([]ShardStatus, 0, len(c.shards))
	for _, sh := range c.shards {
		sh.mu.Lock()
		st, lastErr := sh.stats, sh.lastErr
		sh.mu.Unlock()
		s := ShardStatus{
			ID:     sh.id,
			Addr:   sh.addr,
			State:  sh.br.State().String(),
			Joined: st != nil,
		}
		if st != nil {
			s.Rows, s.SampleRows, s.Generation = st.Rows, st.SampleRows, st.Generation
		}
		if lastErr != nil {
			s.LastError = lastErr.Error()
		}
		out = append(out, s)
	}
	return out
}

func (c *Coordinator) handleShards(w http.ResponseWriter, _ *http.Request) {
	server.WriteJSON(w, map[string]any{"shards": c.shardStatuses()})
}

func (c *Coordinator) handleProbe(w http.ResponseWriter, _ *http.Request) {
	server.WriteJSON(w, map[string]any{"shards": c.ProbeAll()})
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	statuses := c.shardStatuses()
	health := "ok"
	for _, s := range statuses {
		if s.State != breakerClosed.String() {
			health = "degraded"
			break
		}
	}
	server.WriteJSON(w, map[string]any{"status": health, "shards": statuses})
}

// handleReadyz reports ready once the cluster can answer anything at all:
// the schema is known and at least one breaker is closed.
func (c *Coordinator) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	ready := c.schema.Load() != nil
	if ready {
		ready = false
		for _, sh := range c.shards {
			if sh.br.Allow() {
				ready = true
				break
			}
		}
	}
	if !ready {
		server.WriteError(w, http.StatusServiceUnavailable, CodeShardUnavailable,
			fmt.Errorf("no shard joined and available yet"))
		return
	}
	server.WriteJSON(w, map[string]any{"status": "ready"})
}

func (c *Coordinator) handleColumns(w http.ResponseWriter, _ *http.Request) {
	schema := c.schema.Load()
	if schema == nil {
		c.unavailable(w, fmt.Errorf("no shard has joined yet; cluster schema unknown"))
		return
	}
	types := map[string]string{}
	for _, name := range schema.Columns() {
		if t, err := schema.ColumnType(name); err == nil {
			types[name] = t.String()
		}
	}
	var rows int64
	for _, sh := range c.shards {
		if st := sh.summary(); st != nil {
			rows += st.Rows
		}
	}
	server.WriteJSON(w, map[string]any{
		"database": schema.Name,
		"rows":     rows,
		"columns":  schema.Columns(),
		"types":    types,
	})
}
