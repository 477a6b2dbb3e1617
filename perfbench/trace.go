package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dynsample/internal/core"
	"dynsample/internal/engine"
	"dynsample/internal/ingest"
	"dynsample/internal/server"
	"dynsample/internal/sqlparse"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Spans of one request share Req; Parent is the enclosing span
// (0 for a root).
type span struct {
	ID, Parent, Req int64
	Name            string
	Start, End      time.Duration // since the tracer's start
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id and the function that closes it.
func (t *tracer) begin(name string, parent, req int64) (int64, func() time.Duration) {
	id := t.next.Add(1)
	start := time.Since(t.t0)
	return id, func() time.Duration {
		end := time.Since(t.t0)
		t.mu.Lock()
		t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end})
		t.mu.Unlock()
		return end - start
	}
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover.
func selfTimes(spans []span) map[int64]time.Duration {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := time.Duration(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// write stores the spans as JSON lines, one span per line.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := selfTimes(t.spans)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(map[string]any{
			"name": s.Name, "id": s.ID, "parent": s.Parent, "req": s.Req,
			"start_us": s.Start.Microseconds(), "end_us": s.End.Microseconds(), "self_us": self[s.ID].Microseconds(),
		}); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// samples collects per-request figures for medians.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

func (s samples) merge(o samples) {
	for k, v := range o {
		s[k] = append(s[k], v...)
	}
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// traceRule is the stop rule of a traced-run window taking share of the
// run's seconds.
func (b *bench) traceRule(share float64) stopRule {
	dur := time.Duration(share * b.o.Seconds * float64(time.Second))
	return stopRule{minDur: dur, maxDur: 4*dur + 30*time.Second, minOps: int64(b.w.MinSamples)}
}

// traced is the separate traced run: it times calls into each module's
// public functions around the same traffic and reports per-layer metrics.
func (b *bench) traced() error {
	d := b.d
	tr := newTracer()
	p, _ := d.sys.Prepared(server.DefaultStrategy)
	b.metric("core.preprocess_s", d.preprocess.Seconds(), "s")
	b.metric("core.sample_rows", float64(p.SampleRows()), "count")
	b.metric("engine.exact_rows_per_s", b.v.ExactRowsPerSec, "rows/s")

	// Untraced window: the overhead baseline and the runtime counters.
	closedLoop(queryClients, stopRule{minDur: 200 * time.Millisecond, maxDur: 5 * time.Second}, b.queryOp(d.node.URL+"/v1/query", nil))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	plain := closedLoop(queryClients, b.traceRule(0.2), b.queryOp(d.node.URL+"/v1/query", b.v.NodeHash))
	runtime.ReadMemStats(&m1)
	b.countWindow("query", plain)
	nq := float64(len(plain.Latencies))
	b.metric("runtime.allocs_per_query", float64(m1.Mallocs-m0.Mallocs)/nq, "count")
	b.metric("runtime.bytes_per_query", float64(m1.TotalAlloc-m0.TotalAlloc)/nq, "B")
	b.metric("runtime.gc_pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6, "ms")

	// Traced window: the same clients, each request followed by an
	// in-process replay of its layers.
	var mu sync.Mutex
	all := samples{}
	var reqs atomic.Int64
	tw := closedLoop(queryClients, b.traceRule(0.2), func(c, i int) error {
		k := (c*len(b.qs)/queryClients + i) % len(b.qs)
		s, err := b.traceQuery(tr, reqs.Add(1), k)
		if err != nil {
			return err
		}
		mu.Lock()
		all.merge(s)
		mu.Unlock()
		return nil
	})
	b.countWindow("traced_query", tw)
	for _, name := range []string{"sqlparse.parse_us", "sqlparse.compile_us", "sqlparse.present_us",
		"core.answer_us", "core.plan_us", "core.self_us", "core.ci_us", "core.rows_read", "core.steps",
		"core.rows_read_per_group", "engine.execute_plan_us", "engine.step_us", "engine.groups_out",
		"server.self_us", "server.resp_bytes"} {
		b.metric(name, median(all[name]), unitOf(name))
	}
	b.metric("engine.rows_per_s", sum(all["core.rows_read"])/(sum(all["engine.execute_plan_us"])/1e6), "rows/s")
	b.metric("core.exact_escalations", ratio(sum(all["bounded_exact"]), float64(len(all["bounded_exact"]))), "ratio")
	b.metric("trace.untraced_qps", plain.QPS(), "1/s")
	b.metric("trace.traced_qps", tw.QPS(), "1/s")
	b.metric("trace.overhead_pct", 100*(1-tw.QPS()/plain.QPS()), "%")

	if err := b.traceCluster(tr); err != nil {
		return err
	}
	d.closeCluster()
	if err := b.traceIngest(tr); err != nil {
		return err
	}
	path := filepath.Join(b.o.OutDir, fmt.Sprintf("spans-%s-seed%d.jsonl", b.o.Workload, b.o.Seed))
	if err := tr.write(path); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	b.res.Report.SpanFile = path
	b.metric("runtime.peak_rss_mb", peakRSSMB(), "MB")
	return nil
}

// traceQuery sends query k over HTTP, then replays it in process layer by
// layer, and returns the request's per-layer figures.
func (b *bench) traceQuery(tr *tracer, req int64, k int) (samples, error) {
	q, sys, ctx := b.qs[k], b.d.sys, context.Background()
	s := samples{}
	root, endRoot := tr.begin("query", 0, req)
	defer endRoot()

	_, end := tr.begin("server.http", root, req)
	status, body, err := post(b.d.node.URL+"/v1/query", q.Body)
	httpT := end()
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK || responseDigest(body) != b.v.NodeHash[k] {
		return nil, fmt.Errorf("query %d: HTTP %d or answer differs from the verification pass", k, status)
	}

	_, end = tr.begin("sqlparse.parse", root, req)
	stmt, err := sqlparse.Parse(q.SQL)
	parseT := end()
	if err != nil {
		return nil, err
	}
	_, end = tr.begin("sqlparse.compile", root, req)
	compiled, err := sqlparse.Compile(stmt, sys.DB())
	compileT := end()
	if err != nil {
		return nil, err
	}
	bounds := core.Bounds{ErrorBound: q.ErrorBound}
	_, end = tr.begin("core.plan", root, req)
	_, _, err = sys.PreviewPlans(server.DefaultStrategy, compiled.Query, bounds)
	planT := end()
	if err != nil {
		return nil, err
	}
	_, end = tr.begin("core.answer", root, req)
	ans, err := sys.ApproxBoundsCtx(ctx, server.DefaultStrategy, compiled.Query, bounds)
	answerT := end()
	if err != nil {
		return nil, err
	}
	if ans.Rewrite == nil {
		return nil, fmt.Errorf("query %d: answer carries no rewrite plan", k)
	}
	_, end = tr.begin("engine.execute_plan", root, req)
	_, _, err = core.ExecutePlanCtx(ctx, ans.Rewrite)
	execT := end()
	if err != nil {
		return nil, err
	}
	steps, endSteps := tr.begin("engine.steps", root, req)
	for _, st := range ans.Rewrite.Steps {
		_, end = tr.begin("engine.step", steps, req)
		_, err = engine.ExecuteCtx(ctx, st.Source, ans.Rewrite.Query, engine.ExecOptions{
			Scale: st.Scale, ExcludeMask: st.Exclude, MarkExact: st.MarkExact, MaxRows: st.MaxRows, Workers: ans.Rewrite.Workers,
		})
		s.add("engine.step_us", us(end()))
		if err != nil {
			return nil, err
		}
	}
	endSteps()
	_, end = tr.begin("core.ci", root, req)
	core.ConfidenceIntervals(ans.Result, core.DefaultConfidenceLevel)
	s.add("core.ci_us", us(end()))
	_, end = tr.begin("sqlparse.present", root, req)
	compiled.Present(ans.Result)
	presentT := end()

	groups := float64(ans.Result.NumGroups())
	s.add("sqlparse.parse_us", us(parseT))
	s.add("sqlparse.compile_us", us(compileT))
	s.add("sqlparse.present_us", us(presentT))
	s.add("core.plan_us", us(planT))
	s.add("core.answer_us", us(answerT))
	s.add("core.self_us", us(answerT-execT))
	s.add("engine.execute_plan_us", us(execT))
	s.add("core.rows_read", float64(ans.RowsRead))
	s.add("core.steps", float64(len(ans.Rewrite.Steps)))
	s.add("core.rows_read_per_group", ratio(float64(ans.RowsRead), groups))
	s.add("engine.groups_out", groups)
	s.add("server.self_us", us(httpT-parseT-compileT-answerT-presentT))
	s.add("server.resp_bytes", float64(len(body)))
	if q.ErrorBound > 0 {
		exact := 0.0
		if ans.Plan != nil && ans.Plan.Chosen.Exact {
			exact = 1
		}
		s.add("bounded_exact", exact)
	}
	return s, nil
}

// traceCluster measures the cluster layers: per query, a direct raw shard
// query to every shard, the coordinator-side merge of those partials, and
// the coordinator round trip; and the hedge and retry counters over a
// two-client window.
func (b *bench) traceCluster(tr *tracer) error {
	d := b.d
	h0, r0, err := clusterCounters(d.cluster.URL)
	if err != nil {
		return err
	}
	cw := closedLoop(queryClients, b.traceRule(0.15), b.queryOp(d.cluster.URL+"/v1/query", b.v.ClusterHash))
	b.countWindow("cluster_query", cw)
	h1, r1, err := clusterCounters(d.cluster.URL)
	if err != nil {
		return err
	}
	n := float64(len(cw.Latencies))
	b.metric("cluster.hedges", (h1-h0)/n, "count")
	b.metric("cluster.retries", (r1-r0)/n, "count")

	all := samples{}
	var reqs int64 = 1 << 40 // disjoint from the query window's request ids
	tw := closedLoop(1, b.traceRule(0.15), func(_, i int) error {
		k := i % len(b.qs)
		q := b.qs[k]
		reqs++
		root, endRoot := tr.begin("cluster.query", 0, reqs)
		defer endRoot()
		raw, err := json.Marshal(server.QueryRequest{SQL: q.SQL, ErrorBound: q.ErrorBound, Raw: true})
		if err != nil {
			return err
		}
		parts := make([]*server.RawQueryResponse, len(d.shards))
		slowest := time.Duration(0)
		for i, sh := range d.shards {
			_, end := tr.begin("cluster.shard", root, reqs)
			body, err := postOK(sh.ep.URL+"/v1/query", raw)
			if t := end(); t > slowest {
				slowest = t
			}
			if err != nil {
				return err
			}
			parts[i] = &server.RawQueryResponse{}
			if err := json.Unmarshal(body, parts[i]); err != nil {
				return err
			}
		}
		_, end := tr.begin("cluster.merge", root, reqs)
		var merged *engine.Result
		for _, p := range parts {
			res, err := engine.ResultFromWire(p.Result)
			if err != nil {
				return err
			}
			if merged == nil {
				merged = res
			} else if err := merged.Merge(res); err != nil {
				return err
			}
		}
		mergeT := end()
		_, end = tr.begin("cluster.coordinator", root, reqs)
		status, body, err := post(d.cluster.URL+"/v1/query", q.Body)
		coordT := end()
		if err != nil {
			return err
		}
		if status != http.StatusOK || responseDigest(body) != b.v.ClusterHash[k] {
			return fmt.Errorf("cluster query %d: HTTP %d or answer differs from the verification pass", k, status)
		}
		all.add("cluster.shard_us", us(slowest))
		all.add("cluster.merge_us", us(mergeT))
		all.add("cluster.self_us", us(coordT-slowest))
		return nil
	})
	b.countWindow("traced_cluster_query", tw)
	for _, name := range []string{"cluster.shard_us", "cluster.merge_us", "cluster.self_us"} {
		b.metric(name, median(all[name]), "us")
	}
	return nil
}

// clusterCounters sums the coordinator's hedge and retry counters from its
// /metrics exposition.
func clusterCounters(base string) (hedges, retries float64, err error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		var dst *float64
		switch {
		case strings.HasPrefix(line, "aqp_cluster_shard_hedges_total"):
			dst = &hedges
		case strings.HasPrefix(line, "aqp_cluster_shard_retries_total"):
			dst = &retries
		default:
			continue
		}
		f := strings.Fields(line)
		v, err := strconv.ParseFloat(f[len(f)-1], 64)
		if err != nil {
			return 0, 0, fmt.Errorf("parsing %q: %w", line, err)
		}
		*dst += v
	}
	return hedges, retries, sc.Err()
}

// traceIngest times the ingest layers batch by batch: EncodeBatch, WAL.Append
// on a twin WAL (fsync included), Online.Apply on a twin system fed the same
// batches, and Coordinator.Ingest on the live coordinator; then
// Coordinator.SaveCheckpoint into the catalog.
func (b *bench) traceIngest(tr *tracer) error {
	d := b.d
	n := min(len(b.bs.Bodies), 300)
	twinWAL, err := ingest.OpenWAL(filepath.Join(d.dir, "twin-wal"))
	if err != nil {
		return err
	}
	defer twinWAL.Close()
	// The twin gets its own copy of the base: appends share the base's
	// storage, so two writers must never grow the same database.
	tbase, err := generate(b.o.Seed, b.w.FactRows)
	if err != nil {
		return err
	}
	tp, err := newStrategy(b.w, b.o.Seed).Preprocess(tbase)
	if err != nil {
		return err
	}
	twin := core.NewSystem(tbase)
	twin.AddPrepared(server.DefaultStrategy, tp)
	online, err := core.NewOnline(twin, server.DefaultStrategy, onlineConfig(b.w, b.o.Seed))
	if err != nil {
		return err
	}
	s := samples{}
	var payloadBytes, nrows float64
	for i := 0; i < n; i++ {
		id, rows := b.bs.IDs[i], b.bs.Rows(i)
		req := int64(1<<41) + int64(i)
		root, endRoot := tr.begin("ingest.batch", 0, req)
		_, end := tr.begin("ingest.encode", root, req)
		payload, err := ingest.EncodeBatch(&ingest.Batch{Seq: uint64(i + 1), ID: id, Rows: rows})
		s.add("ingest.encode_us", us(end()))
		if err != nil {
			return err
		}
		_, end = tr.begin("ingest.wal_append", root, req)
		err = twinWAL.Append(payload)
		s.add("ingest.wal_append_us", us(end()))
		if err != nil {
			return err
		}
		_, end = tr.begin("core.online_apply", root, req)
		_, err = online.Apply(uint64(i+1), rows)
		s.add("core.online_apply_us", us(end()))
		if err != nil {
			return err
		}
		_, end = tr.begin("ingest.coordinator", root, req)
		_, err = d.ing.Ingest(id, rows)
		s.add("ingest.coordinator_us", us(end()))
		endRoot()
		if err != nil {
			return err
		}
		payloadBytes += float64(len(payload))
		nrows += float64(len(rows))
	}
	b.res.Attempted += int64(n)
	for _, name := range []string{"ingest.encode_us", "ingest.wal_append_us", "core.online_apply_us", "ingest.coordinator_us"} {
		b.metric(name, median(s[name]), "us")
	}
	b.metric("ingest.wal_bytes_per_row", payloadBytes/nrows, "B")
	res, _, err := d.sys.Exact(&engine.Query{Aggs: []engine.Aggregate{{Kind: engine.Count}}})
	if err != nil {
		return err
	}
	want := int64(d.base.NumRows()) + int64(nrows)
	b.check("ingest_count_visible", countOf(res) == want, fmt.Sprintf("COUNT(*) %d, want %d", countOf(res), want))

	var ckMs []float64
	var ckBytes int64
	for i := 0; i < 3; i++ {
		_, end := tr.begin("catalog.checkpoint", 0, int64(1<<42)+int64(i))
		cr, err := d.ing.SaveCheckpoint(d.cat)
		ckMs = append(ckMs, float64(end().Nanoseconds())/1e6)
		if err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		fi, err := os.Stat(d.cat.Path(cr.Generation))
		if err != nil {
			return err
		}
		ckBytes = fi.Size()
	}
	b.metric("catalog.checkpoint_ms", median(ckMs), "ms")
	b.metric("catalog.checkpoint_bytes", float64(ckBytes), "B")
	return nil
}

func sum(vs []float64) float64 {
	t := 0.0
	for _, v := range vs {
		t += v
	}
	return t
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// unitOf derives a per-layer metric's unit from its name.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_bytes"):
		return "B"
	default:
		return "count"
	}
}
