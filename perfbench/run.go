package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"dynsample/internal/server"
)

// queryClients is the closed-loop client count of the query windows. The
// reference box has 2 vCPUs.
const queryClients = 2

// roundsPerDeployment is how many single-node and coordinator query windows
// each deployment serves, alternating so both see the same background.
const roundsPerDeployment = 4

// bench is one run in progress.
type bench struct {
	o    options
	w    workloadDef
	logf func(format string, args ...any)
	res  *result
	d    *deployment // the deployment being measured
	qs   []benchQuery
	bs   *ingestStream
	v    *verification

	// Pooled over every deployment of the run.
	node, cluster []*window
	mixedQueries  []float64 // ms
	acks          []float64 // ms
	ackTime       time.Duration
	acked         int64 // rows acknowledged in the timed ingest windows
	rebuilds      []float64
}

func (b *bench) metric(name string, value float64, unit string) {
	b.res.Metrics[name] = metric{Value: value, Unit: unit}
}

func (b *bench) figure(name string, value float64, unit string) {
	b.res.Report.Figures[name] = metric{Value: value, Unit: unit}
}

func (b *bench) check(name string, pass bool, detail string) {
	b.res.Attempted++
	if !pass {
		b.res.Failed++
	}
	b.res.Report.Checks = append(b.res.Report.Checks, checkResult{Name: name, Pass: pass, Detail: detail})
}

// countWindow adds a window's operations to the run's totals.
func (b *bench) countWindow(name string, w *window) {
	b.res.Attempted += w.Attempted
	b.res.Failed += w.Failed
	b.res.Report.Samples[name] += len(w.Latencies)
	if w.FirstErr != nil {
		b.res.Report.Checks = append(b.res.Report.Checks, checkResult{Name: name, Detail: w.FirstErr.Error()})
	}
}

// run executes one benchmark run and returns its result. The untraced run
// builds the deployment SetupReps times and measures every build in turn,
// so the figures average over builds as well as over time; the traced run
// builds it once.
func run(o options, logw io.Writer) (*result, error) {
	w := workloads[o.Workload]
	if o.Tiny {
		w = w.shrink()
	}
	if err := os.MkdirAll(o.OutDir, 0o755); err != nil {
		return nil, err
	}
	removeStaleState(o.OutDir)
	b := &bench{
		o: o, w: w,
		logf: func(format string, args ...any) { fmt.Fprintf(logw, "perfbench: "+format+"\n", args...) },
		res: &result{Metrics: map[string]metric{}, Report: report{
			Workload: o.Workload, Seed: o.Seed, Trace: o.Trace, Machine: machine(),
			Samples: map[string]int{}, Figures: map[string]metric{},
		}},
	}
	reps := w.SetupReps
	if o.Trace {
		reps = 1
	}
	var setups []float64
	for rep := 0; rep < reps; rep++ {
		runtime.GC()
		t0 := time.Now()
		d, err := deploy(w, o.Seed, filepath.Join(o.OutDir, fmt.Sprintf("state-%d-%d", os.Getpid(), rep)))
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		b.d = d
		err = b.measure(rep, reps)
		d.Close()
		b.d = nil
		if err != nil {
			return nil, err
		}
	}
	b.logf("%s seed %d: setups %v s", o.Workload, o.Seed, setups)
	if !o.Trace {
		b.metric("setup_s", median(setups), "s")
		b.queryMetrics("query", b.node)
		b.queryMetrics("cluster", b.cluster)
		sort.Float64s(b.acks)
		b.res.Report.Samples["ingest_ack"] = len(b.acks)
		b.res.Report.Samples["rebuild"] = len(b.rebuilds)
		b.figure("ingest_ack_beyond_p99", float64(beyond(b.acks, 0.99)), "count")
		b.metric("ingest_rows_per_s", float64(b.acked)/b.ackTime.Seconds(), "rows/s")
		b.metric("ingest_ack_p50_ms", percentile(b.acks, 0.5), "ms")
		b.figure("ingest_ack_p99_ms", percentile(b.acks, 0.99), "ms")
		b.metric("mixed_query_p50_ms", median(b.mixedQueries), "ms")
		b.metric("rebuild_s", median(b.rebuilds), "s")
		b.figure("peak_rss_mb", peakRSSMB(), "MB")
	}
	b.figure("fail_frac", float64(b.res.Failed)/float64(max(b.res.Attempted, 1)), "ratio")
	b.res.Correct = b.res.Failed == 0
	for _, c := range b.res.Report.Checks {
		b.res.Correct = b.res.Correct && c.Pass
	}
	return b.res, nil
}

// measure runs one deployment's share of the run. The first deployment also
// draws the inputs and runs the verification pass, whose response digests
// every later deployment's answers must match; the last one runs the
// durability checks.
func (b *bench) measure(rep, reps int) error {
	d := b.d
	if rep == 0 {
		// The live heap of the built deployment before any traffic: data,
		// samples, shards and servers.
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		var err error
		if b.qs, err = genQueries(b.w, d.systems(), b.o.Seed); err != nil {
			return err
		}
		if b.bs, err = genBatches(b.w, d.base, b.o.Seed); err != nil {
			return err
		}
		b.res.Report.InputsSHA256 = inputsDigest(b.qs, b.bs)
		b.v = verify(d, b.qs, b.o.Trace)
		b.res.Attempted += b.v.Ops
		b.res.Failed += b.v.Failed
		b.res.Report.Checks = append(b.res.Report.Checks, b.v.Checks...)
		b.res.Report.AnswersSHA256 = b.v.AnswersSHA256
		b.figure("pct_groups_missed", b.v.PctGroupsMissed, "%")
		b.figure("bound_violation_rate", ratio(float64(b.v.Violations), float64(b.v.Bounded)), "ratio")
		b.figure("bounded_queries", float64(b.v.Bounded), "count")
		if b.o.Trace {
			return b.traced()
		}
		p, _ := d.sys.Prepared(server.DefaultStrategy)
		b.metric("rel_err", b.v.RelErr, "ratio")
		b.metric("sample_bytes_ratio", float64(p.SampleBytes())/float64(d.base.TotalBytes()), "ratio")
		b.metric("serving_heap_mb", float64(ms.HeapAlloc)/(1<<20), "MB")
	}
	// Warm the connections and the planner's scan-rate estimate.
	closedLoop(queryClients, stopRule{minDur: 200 * time.Millisecond, maxDur: 5 * time.Second}, b.queryOp(d.node.URL+"/v1/query", nil))
	share := 0.35 / float64(reps*roundsPerDeployment)
	for r := 0; r < roundsPerDeployment; r++ {
		runtime.GC()
		b.node = append(b.node, closedLoop(queryClients, b.windowRule(share, reps), b.queryOp(d.node.URL+"/v1/query", b.v.NodeHash)))
		runtime.GC()
		b.cluster = append(b.cluster, closedLoop(queryClients, b.windowRule(share, reps), b.queryOp(d.cluster.URL+"/v1/query", b.v.ClusterHash)))
	}
	d.closeCluster()
	runtime.GC()
	if err := b.mixed(); err != nil {
		return err
	}
	if rep == reps-1 {
		return b.durability()
	}
	return nil
}

// windowRule is the stop rule of a query window taking share of the run's
// seconds; its sample floor is the run's MinSamples split over the windows
// of one kind.
func (b *bench) windowRule(share float64, reps int) stopRule {
	dur := time.Duration(share * b.o.Seconds * float64(time.Second))
	return stopRule{minDur: dur, maxDur: 4*dur + 30*time.Second, minOps: int64(b.w.MinSamples / (reps * roundsPerDeployment))}
}

// queryMetrics reports prefix_qps and prefix_p50_ms as medians over the
// windows, which keeps a burst of noise from a neighbouring tenant out of
// the figure, and the prefix_p99_ms figure over the pooled samples.
func (b *bench) queryMetrics(prefix string, ws []*window) {
	var qps, p50, pooled []float64
	for _, w := range ws {
		b.countWindow(prefix, w)
		qps = append(qps, w.QPS())
		p50 = append(p50, percentile(w.Latencies, 0.5))
		pooled = append(pooled, w.Latencies...)
	}
	sort.Float64s(pooled)
	b.figure(prefix+"_beyond_p99", float64(beyond(pooled, 0.99)), "count")
	b.metric(prefix+"_qps", median(qps), "1/s")
	b.metric(prefix+"_p50_ms", median(p50), "ms")
	b.figure(prefix+"_p99_ms", percentile(pooled, 0.99), "ms")
}

// queryOp returns a closed-loop operation that posts the workload's queries
// to url in a per-client rotation and, when want is non-nil, checks each
// response against the verification pass's digest.
func (b *bench) queryOp(url string, want [][32]byte) func(c, i int) error {
	n := len(b.qs)
	return func(c, i int) error {
		k := (c*n/queryClients + i) % n
		status, body, err := post(url, b.qs[k].Body)
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("query %d: HTTP %d", k, status)
		}
		if want != nil && responseDigest(body) != want[k] {
			return fmt.Errorf("query %d: answer differs from the verification pass", k)
		}
		return nil
	}
}

// mixed posts the timed ingest batches in segments of RebuildEvery batches.
// During a segment one closed-loop writer posts the batches while one query
// client runs beside it; between segments the benchmark calls Server.Rebuild
// with no other traffic, so acks, queries beside ingest, and rebuilds are
// each timed against one fixed background.
func (b *bench) mixed() error {
	n := len(b.bs.Bodies) - b.w.TailBatches
	for start := 0; start < n; start += b.w.RebuildEvery {
		end := min(start+b.w.RebuildEvery, n)
		if err := b.ingestSegment(start, end); err != nil {
			return fmt.Errorf("ingest: %w", err)
		}
		if end == n {
			break
		}
		b.res.Attempted++
		t0 := time.Now()
		st, err := b.d.srv.Rebuild()
		b.rebuilds = append(b.rebuilds, time.Since(t0).Seconds())
		if err == nil && (!st.Persisted || st.PersistError != "") {
			err = fmt.Errorf("checkpoint not persisted: %s", st.PersistError)
		}
		if err != nil {
			b.res.Failed++
			return fmt.Errorf("rebuild: %w", err)
		}
	}
	return nil
}

// ingestSegment posts batches [start, end) from one closed-loop writer while
// one query client runs until the writer is done.
func (b *bench) ingestSegment(start, end int) error {
	var (
		done      atomic.Bool
		writerErr error
		acks      []float64
		ackTime   time.Duration
	)
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		defer done.Store(true)
		for i := start; i < end; i++ {
			t0 := time.Now()
			if writerErr = b.ingest(i); writerErr != nil {
				return
			}
			lat := time.Since(t0)
			ackTime += lat
			acks = append(acks, float64(lat.Nanoseconds())/1e6)
		}
	}()
	q := closedLoop(1, stopRule{maxDur: 150 * time.Second, done: done.Load}, b.queryOp(b.d.node.URL+"/v1/query", nil))
	<-finished
	b.countWindow("mixed_query", q)
	b.mixedQueries = append(b.mixedQueries, q.Latencies...)
	b.res.Attempted += int64(len(acks))
	if writerErr != nil {
		b.res.Attempted++
		b.res.Failed++
		return writerErr
	}
	b.acks = append(b.acks, acks...)
	b.ackTime += ackTime
	b.acked += int64(len(acks) * b.w.BatchRows)
	return nil
}

// ingest posts batch i to the single node and checks its acknowledgement.
func (b *bench) ingest(i int) error {
	body, err := postOK(b.d.node.URL+"/v1/ingest", b.bs.Bodies[i])
	if err != nil {
		return err
	}
	var ir server.IngestResponse
	if err := json.Unmarshal(body, &ir); err != nil {
		return err
	}
	if ir.Rows != b.w.BatchRows || ir.Duplicate {
		return fmt.Errorf("batch %s acknowledged %d rows (duplicate=%v), want %d", b.bs.IDs[i], ir.Rows, ir.Duplicate, b.w.BatchRows)
	}
	return nil
}

// durability posts the tail batches, then checks that every acknowledged
// row is visible and survives a restart: /v1/exact COUNT(*) equals base +
// acked rows, and so does a fresh system restored from the newest
// checkpoint plus the WAL tail.
func (b *bench) durability() error {
	d := b.d
	acked := int64(len(b.bs.Bodies)-b.w.TailBatches) * int64(b.w.BatchRows)
	for i := len(b.bs.Bodies) - b.w.TailBatches; i < len(b.bs.Bodies); i++ {
		b.res.Attempted++
		if err := b.ingest(i); err != nil {
			b.res.Failed++
			return fmt.Errorf("ingest: %w", err)
		}
		acked += int64(b.w.BatchRows)
	}
	want := int64(d.base.NumRows()) + acked
	body, err := postOK(d.node.URL+"/v1/exact", exactRequest("SELECT COUNT(*) FROM T"))
	var resp server.QueryResponse
	if err == nil {
		err = json.Unmarshal(body, &resp)
	}
	got := int64(-1)
	if err == nil && len(resp.Groups) == 1 && len(resp.Groups[0].Values) == 1 {
		got = int64(resp.Groups[0].Values[0])
	}
	b.check("ingest_count_visible", err == nil && got == want, fmt.Sprintf("COUNT(*) %d, want %d base + %d acked", got, d.base.NumRows(), acked))
	if err := d.closeNode(); err != nil {
		return fmt.Errorf("closing wal: %w", err)
	}
	restored, rs, err := d.restartCount()
	detail := fmt.Sprintf("restored COUNT(*) %d, want %d (%d tail batches replayed, %d covered by the checkpoint)", restored, want, rs.Batches, rs.Covered)
	if err != nil {
		detail = err.Error()
	}
	b.check("ingest_survives_restart", err == nil && restored == want && rs.Batches > 0, detail)
	return nil
}

// removeStaleState deletes per-run state directories that killed runs left
// in dir: those whose process id no longer exists.
func removeStaleState(dir string) {
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		parts := strings.Split(e.Name(), "-")
		if len(parts) != 3 || parts[0] != "state" {
			continue
		}
		if pid, err := strconv.Atoi(parts[1]); err == nil && !alive(pid) {
			os.RemoveAll(filepath.Join(dir, e.Name()))
		}
	}
}

// alive reports whether a process with this id exists.
func alive(pid int) bool {
	_, err := os.Stat(fmt.Sprintf("/proc/%d", pid))
	return err == nil
}

// peakRSSMB returns the process's peak resident set size (VmHWM) in MB, or,
// where /proc is missing, the memory the Go runtime obtained from the OS.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
