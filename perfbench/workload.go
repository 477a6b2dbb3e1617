package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"dynsample/internal/core"
	"dynsample/internal/engine"
	"dynsample/internal/scenario"
	"dynsample/internal/server"
	"dynsample/internal/sqlparse"
	"dynsample/internal/workload"
)

// workloadDef fixes one workload's sizes and query shape. Every workload runs
// the same phases (see README.md): single-node queries, the same queries
// through a two-shard coordinator, and ingest beside one query client with
// count-driven rebuilds. What differs is the data size and the query shape,
// which decide whether the response path or the scan dominates.
type workloadDef struct {
	FactRows int
	BaseRate float64
	// Queries is the number of distinct queries; clients cycle through them.
	Queries int
	// Grouping lists the grouping-column counts the queries cycle through.
	Grouping []int
	// Columns restricts grouping and predicate columns; nil means all.
	Columns     []string
	MaxDistinct int
	Predicates  int
	// BoundedEvery > 0 gives every BoundedEvery-th query ErrorBound.
	BoundedEvery int
	ErrorBound   float64
	// Every deployment of a run posts the first Batches−TailBatches batches
	// of BatchRows rows to /v1/ingest, and the benchmark calls Server.Rebuild
	// after every RebuildEvery acknowledged batches. The last deployment then
	// posts the TailBatches untimed, so the restart check always replays a
	// WAL tail past the newest checkpoint.
	Batches      int
	BatchRows    int
	RebuildEvery int
	TailBatches  int
	// SetupReps is how many times the deployment is built and measured;
	// setup_s is the median build time.
	SetupReps int
	// MinSamples is the least number of timed operations per window, so the
	// reported p99 has at least ten samples beyond it.
	MinSamples int
}

// lowCardDims are the dimension columns with at most 30 distinct values in
// the tpch spec: grouping on one of them keeps answers small, and filtering
// on them runs the foreign-key accessors for every scanned row.
var lowCardDims = []string{
	"p_mfgr", "p_brand", "p_category", "p_color", "p_retail_bucket",
	"s_nation", "s_region", "s_acctbal_bucket",
	"c_nation", "c_region", "c_mktsegment", "c_age_bucket",
	"o_orderpriority", "o_orderstatus", "o_ordermonth", "o_orderyear",
}

var workloads = map[string]workloadDef{
	"dashboard": {
		FactRows:     200_000,
		BaseRate:     0.01,
		Queries:      200,
		Grouping:     []int{1, 2, 3, 4},
		MaxDistinct:  30,
		Predicates:   1,
		BoundedEvery: 2,
		ErrorBound:   0.95,
		Batches:      750,
		BatchRows:    50,
		RebuildEvery: 250,
		TailBatches:  50,
		SetupReps:    3,
		MinSamples:   1000,
	},
	"scan": {
		FactRows:    300_000,
		BaseRate:    0.05,
		Queries:     64,
		Grouping:    []int{1},
		Columns:     lowCardDims,
		MaxDistinct: 30,
		Predicates:  2,
		Batches:     750,
		BatchRows:   50,
		// Rebuilds over the larger base cost seconds each; fewer of them
		// keep the run inside its time budget.
		RebuildEvery: 350,
		TailBatches:  50,
		SetupReps:    3,
		MinSamples:   1000,
	},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// shrink scales a workload down for smoke runs.
func (w workloadDef) shrink() workloadDef {
	w.FactRows /= 40
	w.Queries = 8
	w.Batches = 14
	w.BatchRows = 20
	w.RebuildEvery = 5
	w.TailBatches = 2
	w.SetupReps = 2
	w.MinSamples = 40
	return w
}

// generate builds the tpch spec's database with rows fact rows from seed.
func generate(seed int64, rows int) (*engine.Database, error) {
	spec, err := scenario.BuiltinSpec("tpch")
	if err != nil {
		return nil, err
	}
	spec.Seed = seed
	for i := range spec.Tables {
		if spec.Tables[i].Fact {
			spec.Tables[i].Rows = rows
		}
	}
	return scenario.Generate(spec)
}

// benchQuery is one distinct query of the workload.
type benchQuery struct {
	Q    *engine.Query
	SQL  string
	Body []byte // POST /v1/query request body
	// ErrorBound is the request's error_bound; 0 means unbounded.
	ErrorBound float64
	Count      bool // the aggregate is COUNT
}

// genQueries draws the workload's distinct queries from seed. Queries cycle
// through the grouping-column counts and alternate COUNT and SUM. Every
// BoundedEvery-th query carries ErrorBound when the planner of every system
// serving it (the single node and each shard) can meet that bound from
// samples: the bound models a dashboard that accepts a sampled answer, not
// one that forces an exact scan. systems[0] is the single node.
func genQueries(w workloadDef, systems []*core.System, seed int64) ([]benchQuery, error) {
	db := systems[0].DB()
	type key struct {
		groups int
		agg    engine.AggKind
	}
	gens := map[key]*workload.Generator{}
	out := make([]benchQuery, w.Queries)
	for i := range out {
		k := key{groups: w.Grouping[i%len(w.Grouping)], agg: engine.Count}
		if (i/len(w.Grouping))%2 == 1 {
			k.agg = engine.Sum
		}
		g := gens[k]
		if g == nil {
			var err error
			g, err = workload.NewGenerator(db, workload.Config{
				GroupingColumns: k.groups,
				Predicates:      w.Predicates,
				MassSelectivity: true,
				Aggregate:       k.agg,
				Measures:        []string{"l_extendedprice"},
				MaxDistinct:     w.MaxDistinct,
				Columns:         w.Columns,
				Seed:            seed*100 + int64(k.groups)*2 + int64(k.agg),
			})
			if err != nil {
				return nil, fmt.Errorf("query generator: %w", err)
			}
			gens[k] = g
		}
		q := g.Query()
		bq := benchQuery{Q: q, SQL: q.String(), Count: k.agg == engine.Count}
		if w.BoundedEvery > 0 && i%w.BoundedEvery == w.BoundedEvery-1 {
			feasible := true
			for _, sys := range systems {
				ok, err := sampleFeasible(sys, bq.SQL, w.ErrorBound)
				if err != nil {
					return nil, err
				}
				feasible = feasible && ok
			}
			if feasible {
				bq.ErrorBound = w.ErrorBound
			}
		}
		body, err := json.Marshal(server.QueryRequest{SQL: bq.SQL, ErrorBound: bq.ErrorBound})
		if err != nil {
			return nil, err
		}
		bq.Body = body
		out[i] = bq
	}
	return out, nil
}

// sampleFeasible reports whether the planner predicts some sample plan (not
// the exact fallback) meets errorBound for sql.
func sampleFeasible(sys *core.System, sql string, errorBound float64) (bool, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return false, err
	}
	compiled, err := sqlparse.Compile(stmt, sys.DB())
	if err != nil {
		return false, err
	}
	cands, _, err := sys.PreviewPlans(server.DefaultStrategy, compiled.Query, core.Bounds{ErrorBound: errorBound})
	if err != nil {
		return false, err
	}
	for _, c := range cands {
		if c.Feasible && !c.Exact {
			return true, nil
		}
	}
	return false, nil
}

// ingestStream is the workload's ingest input: rows from the same spec
// under another seed, cut into batches of BatchRows rows in the base view's
// column order. Request bodies are encoded up front so the writer does no
// encoding inside the timed window; typed rows are rebuilt on demand, since
// holding every engine.Value would cost far more memory than the bodies.
type ingestStream struct {
	rows   int
	acc    []engine.ColumnAccessor
	IDs    []string
	Bodies [][]byte // POST /v1/ingest request bodies
}

func genBatches(w workloadDef, base *engine.Database, seed int64) (*ingestStream, error) {
	src, err := generate(seed+1_000_003, w.Batches*w.BatchRows)
	if err != nil {
		return nil, err
	}
	st := &ingestStream{rows: w.BatchRows}
	for _, c := range base.Columns() {
		a, err := src.Accessor(c)
		if err != nil {
			return nil, err
		}
		st.acc = append(st.acc, a)
	}
	for b := 0; b < w.Batches; b++ {
		id := fmt.Sprintf("seed%d-batch%06d", seed, b)
		cells := make([][]any, w.BatchRows)
		for r, vals := range st.Rows(b) {
			cells[r] = make([]any, len(vals))
			for c, v := range vals {
				switch v.T {
				case engine.Int:
					cells[r][c] = v.I
				case engine.Float:
					cells[r][c] = v.F
				default:
					cells[r][c] = v.S
				}
			}
		}
		body, err := json.Marshal(struct {
			Rows    [][]any `json:"rows"`
			BatchID string  `json:"batch_id"`
		}{cells, id})
		if err != nil {
			return nil, err
		}
		st.IDs = append(st.IDs, id)
		st.Bodies = append(st.Bodies, body)
	}
	return st, nil
}

// Rows returns batch b's rows as typed values.
func (st *ingestStream) Rows(b int) [][]engine.Value {
	out := make([][]engine.Value, st.rows)
	for r := range out {
		out[r] = make([]engine.Value, len(st.acc))
		for c, a := range st.acc {
			out[r][c] = a.Value(b*st.rows + r)
		}
	}
	return out
}

// inputsDigest hashes every input the server sees: the query request bodies
// and the ingest request bodies, in order.
func inputsDigest(qs []benchQuery, bs *ingestStream) string {
	h := sha256.New()
	for _, q := range qs {
		h.Write(q.Body)
		h.Write([]byte{0})
	}
	for _, b := range bs.Bodies {
		h.Write(b)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}
