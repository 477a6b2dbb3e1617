package experiments

import (
	"fmt"

	"dynsample/internal/core"
	"dynsample/internal/engine"
	"dynsample/internal/metrics"
	"dynsample/internal/scenario"
	"dynsample/internal/uniform"
	"dynsample/internal/workload"
)

// AllocationRatio is γ = t/r = 0.5 throughout §5, as recommended by §4.4.
const AllocationRatio = 0.5

// salesZipf is the SALES database's categorical skew: moderate, as the paper
// observes SALES is less skewed than TPCH1G2.0z.
const salesZipf = 1.2

// Scale controls the size of every experiment so the suite can run anywhere
// from unit-test speed to paper scale. The zero value is filled with the
// defaults below.
type Scale struct {
	// TPCHSF1Rows is the fact-row count standing in for the paper's 1 GB
	// TPC-H databases (default 100,000: the benchmark's 6M rows per SF,
	// scaled 60x down).
	TPCHSF1Rows int
	// TPCHSF5Rows stands in for the 5 GB databases used by the performance
	// experiments (default 500,000).
	TPCHSF5Rows int
	// SalesRows is the SALES fact size (default 80,000 for the paper's 800k).
	SalesRows int
	// QueriesPerConfig is the number of random queries per parameter setting
	// (default 20, as in §5.2.3).
	QueriesPerConfig int
	// BaseRate is r (default 0.01, the paper's headline setting).
	BaseRate float64
	// Seed drives data generation, pre-processing and workloads.
	Seed int64
}

func (s Scale) withDefaults() Scale {
	if s.TPCHSF1Rows == 0 {
		s.TPCHSF1Rows = 1200000
	}
	if s.TPCHSF5Rows == 0 {
		s.TPCHSF5Rows = 2400000
	}
	if s.SalesRows == 0 {
		s.SalesRows = 400000
	}
	if s.QueriesPerConfig == 0 {
		s.QueriesPerConfig = 20
	}
	if s.BaseRate == 0 {
		s.BaseRate = 0.01
	}
	return s
}

// Runner executes experiments, caching generated databases and pre-processed
// sample sets across figures.
type Runner struct {
	Scale Scale

	tpch   map[string]*engine.Database // key: fmt "z=%.1f/rows=%d"
	sales  *engine.Database
	preps  map[string]core.Prepared
	exacts map[string]*engine.Result // key: db name + query text
}

// NewRunner returns a runner at the given scale.
func NewRunner(sc Scale) *Runner {
	return &Runner{
		Scale:  sc.withDefaults(),
		tpch:   make(map[string]*engine.Database),
		preps:  make(map[string]core.Prepared),
		exacts: make(map[string]*engine.Result),
	}
}

// exact computes (and caches) the exact answer to q over db. Several figures
// replay the same workload against differently-parameterised samples; the
// ground truth is identical across them.
func (r *Runner) exact(db *engine.Database, q *engine.Query) (*engine.Result, error) {
	key := db.Name + "|" + q.String()
	if res, ok := r.exacts[key]; ok {
		return res, nil
	}
	res, err := engine.ExecuteExact(db, q)
	if err != nil {
		return nil, err
	}
	r.exacts[key] = res
	return res, nil
}

// TPCH returns (building if needed) the skewed TPC-H database with the given
// Zipf z and fact rows. sf only labels the database (TPCHxGyz).
func (r *Runner) TPCH(z float64, rows int) (*engine.Database, error) {
	return r.tpchSF(1, z, rows)
}

// TPCH5 returns the larger database standing in for the paper's 5 GB
// TPCH5Gyz, used by the performance experiments.
func (r *Runner) TPCH5(z float64, rows int) (*engine.Database, error) {
	return r.tpchSF(5, z, rows)
}

func (r *Runner) tpchSF(sf float64, z float64, rows int) (*engine.Database, error) {
	key := fmt.Sprintf("sf=%g/z=%.2f/rows=%d", sf, z, rows)
	if db, ok := r.tpch[key]; ok {
		return db, nil
	}
	db, err := scenario.BuiltinDatabase("tpch", rows, z, r.Scale.Seed+int64(z*1000))
	if err != nil {
		return nil, err
	}
	// The name keys the prepared-state and ground-truth caches, so it must
	// tell the databases apart: TPCHxGyz, as in the paper.
	db.Name = fmt.Sprintf("TPCH%gG%.1fz", sf, z)
	r.tpch[key] = db
	return db, nil
}

// Sales returns (building if needed) the SALES-like database.
func (r *Runner) Sales() (*engine.Database, error) {
	if r.sales != nil {
		return r.sales, nil
	}
	db, err := scenario.BuiltinDatabase("sales", r.Scale.SalesRows, salesZipf, r.Scale.Seed+77)
	if err != nil {
		return nil, err
	}
	r.sales = db
	return db, nil
}

// prepared runs (and caches) a strategy's pre-processing on a database.
func (r *Runner) prepared(db *engine.Database, key string, st core.Strategy) (core.Prepared, error) {
	full := db.Name + "/" + key
	if p, ok := r.preps[full]; ok {
		return p, nil
	}
	p, err := st.Preprocess(db)
	if err != nil {
		return nil, fmt.Errorf("preprocess %s on %s: %w", key, db.Name, err)
	}
	r.preps[full] = p
	return p, nil
}

// smallGroup returns the cached small group sampling state for db at rate.
func (r *Runner) smallGroup(db *engine.Database, rate float64, cols []string) (core.Prepared, error) {
	key := fmt.Sprintf("sg/r=%g/cols=%d", rate, len(cols))
	return r.prepared(db, key, core.NewSmallGroup(core.SmallGroupConfig{
		BaseRate:           rate,
		SmallGroupFraction: AllocationRatio * rate,
		Columns:            cols,
		Seed:               r.Scale.Seed + 1,
	}))
}

// uniformMatched returns the uniform sample granting the same per-query
// sample space as small group sampling with g grouping columns: rate
// (1 + γ·g)·r (§5.3.1).
func (r *Runner) uniformMatched(db *engine.Database, rate float64, g int) (core.Prepared, error) {
	u := rate * (1 + AllocationRatio*float64(g))
	if u > 1 {
		u = 1
	}
	key := fmt.Sprintf("uni/r=%g", u)
	return r.prepared(db, key, uniform.New(uniform.Config{Rate: u, Seed: r.Scale.Seed + 2}))
}

// evalQueries answers each query with each named method and returns the mean
// accuracy per method, skipping queries whose exact answer is empty.
type method struct {
	name   string
	answer func(q *engine.Query, g int) (*core.Answer, error)
}

func (r *Runner) evalQueries(db *engine.Database, queries []*engine.Query, methods []method) (map[string]metrics.Accuracy, error) {
	accs := make(map[string][]metrics.Accuracy, len(methods))
	for _, q := range queries {
		exact, err := r.exact(db, q)
		if err != nil {
			return nil, err
		}
		if exact.NumGroups() == 0 {
			continue
		}
		for _, m := range methods {
			ans, err := m.answer(q, len(q.GroupBy))
			if err != nil {
				return nil, fmt.Errorf("%s: %w", m.name, err)
			}
			acc, err := metrics.Compare(exact, ans.Result, 0)
			if err != nil {
				return nil, err
			}
			accs[m.name] = append(accs[m.name], acc)
		}
	}
	out := make(map[string]metrics.Accuracy, len(methods))
	for name, list := range accs {
		out[name] = metrics.Mean(list)
	}
	return out, nil
}

// countWorkload builds the §5.2.3 COUNT workload with g grouping columns.
func (r *Runner) countWorkload(db *engine.Database, g, seedOffset int) ([]*engine.Query, error) {
	gen, err := workload.NewGenerator(db, workload.Config{
		GroupingColumns: g,
		Predicates:      1 + (g % 2), // alternate 1 and 2 predicates
		Aggregate:       engine.Count,
		MaxDistinct:     core.DefaultDistinctLimit,
		MassSelectivity: true,
		Seed:            r.Scale.Seed + int64(seedOffset),
	})
	if err != nil {
		return nil, err
	}
	return gen.Queries(r.Scale.QueriesPerConfig), nil
}
