package core

import (
	"fmt"
	"sort"

	"dynsample/internal/bitmask"
	"dynsample/internal/engine"
	"dynsample/internal/parallel"
	"dynsample/internal/randx"
	"dynsample/internal/sample"
)

// DefaultDistinctLimit is τ, the distinct-value cutoff above which a column
// is dropped from S during the first pre-processing pass ("we set [it] to
// 5000 in our experiments", §4.2.1).
const DefaultDistinctLimit = 5000

// DefaultConfidenceLevel is the nominal coverage of reported intervals.
const DefaultConfidenceLevel = 0.95

// DefaultScanRowsPerSecond is the conservative scan-throughput estimate the
// deadline degradation rule uses when SmallGroupConfig.ScanRowsPerSecond is
// unset (including sample sets restored from disk, whose serialised form
// does not carry this machine-local figure). The in-memory kernel scans
// tens of millions of rows per second per core; erring low only makes
// degradation slightly more eager, never an answer slower.
const DefaultScanRowsPerSecond = 25e6

// OverallBuilder selects the rows of the overall sample. The default is a
// uniform reservoir sample, but §4.2.1 notes the overall sample is pluggable:
// "it is also possible to use a non-uniform sampling technique ... for
// example, we use outlier indexing to construct the overall sample". A
// non-uniform builder returns per-row weights (inverse sampling rates);
// weights may be nil for a uniform sample, in which case the runtime scales
// by N/len(rows).
type OverallBuilder interface {
	BuildOverall(db *engine.Database, target int, seed int64) (rows []int, weights []float64, err error)
}

// HierarchyLevel is one band of the multi-level group-size hierarchy
// extension (§4.2.3: "one could sample 100% of rows from small groups, 10%
// of rows from 'medium-sized' groups, and 1% of rows from large groups").
// A column value belongs to the first level whose MaxFraction bound covers
// its cumulative tail mass; its rows enter the column's small group table
// sampled at Rate (with weight 1/Rate).
type HierarchyLevel struct {
	// MaxFraction bounds the cumulative tail mass (as a fraction of the
	// database) covered by this and all rarer levels.
	MaxFraction float64
	// Rate is the sampling rate for rows in this band; the first level must
	// use rate 1 so the smallest groups stay exact.
	Rate float64
}

// BernoulliOverall draws the overall sample by independent per-row coin
// flips instead of the default fixed-size reservoir — the sampling model the
// paper's analysis assumes (§4.4: "we make the simplifying assumption that
// Bernoulli sampling is performed"). The realised sample size varies around
// the target; the runtime scales by the realised size, so estimates stay
// unbiased.
type BernoulliOverall struct{}

// BuildOverall implements OverallBuilder.
func (BernoulliOverall) BuildOverall(db *engine.Database, target int, seed int64) ([]int, []float64, error) {
	n := db.NumRows()
	rng := randx.New(seed)
	rows := sample.Bernoulli(rng, n, float64(target)/float64(n))
	if len(rows) == 0 {
		rows = []int{rng.Intn(n)}
	}
	// Nil weights: the runtime would scale by N/len(rows), but weights make
	// the realised inverse rate explicit per row.
	w := float64(n) / float64(len(rows))
	weights := make([]float64, len(rows))
	for i := range weights {
		weights[i] = w
	}
	return rows, weights, nil
}

// SmallGroupConfig parameterises small group sampling pre-processing.
type SmallGroupConfig struct {
	// BaseRate is r, the overall sample size as a fraction of the database.
	BaseRate float64
	// SmallGroupFraction is t, the maximum size of each small group table as
	// a fraction of the database. Zero means 0.5·BaseRate, the sampling
	// allocation ratio γ=0.5 recommended by the analysis of §4.4.
	SmallGroupFraction float64
	// DistinctLimit is τ; zero means DefaultDistinctLimit.
	DistinctLimit int
	// Columns restricts the candidate column set S (workload-based trimming,
	// §4.2.3). Nil means all view columns.
	Columns []string
	// ConfidenceLevel is the nominal CI coverage; zero means 0.95.
	ConfidenceLevel float64
	// MaxTablesPerQuery, when positive, caps how many small group tables a
	// single query may read (the runtime heuristic suggested in §4.2.3).
	// Tables covering the most rare rows are preferred.
	MaxTablesPerQuery int
	// Levels enables the multi-level hierarchy extension. Nil means the
	// paper's default two-level scheme: one band at fraction
	// SmallGroupFraction, rate 1.
	Levels []HierarchyLevel
	// Pairs lists column pairs to build pair small group tables for
	// (§4.2.3 variation). A pair table stores, completely, the rows whose
	// value combination is rare while each value is individually common.
	Pairs [][2]string
	// Overall overrides how the overall sample is drawn; nil means a uniform
	// reservoir sample.
	Overall OverallBuilder
	// Renormalize stores samples as renormalized join synopses (§5.2.2):
	// fact slices joined to reduced dimension tables shared across all
	// sample tables, instead of fully flattened tables. Saves space on wide
	// star schemas at a small runtime join cost.
	Renormalize bool
	// Workers is the worker budget for both phases. Pre-processing fans out
	// the per-column frequency counters of scan 1 and the materialisation of
	// the small group tables across Workers goroutines; at runtime the
	// rewritten query's steps execute as parallel tasks over partitioned
	// scans (RewritePlan.Workers). 0 means 1: no parallelism. Outputs are
	// identical for every value: parallel pre-processing
	// partitions work whose results never depend on completion order, and
	// all randomness stays in the single-threaded second scan.
	Workers int
	// Seed drives all randomness in pre-processing.
	Seed int64
	// ScanRowsPerSecond estimates runtime scan throughput for the deadline
	// degradation rule (AnswerCtx): a plan whose total sample rows exceed
	// remaining-budget × ScanRowsPerSecond falls back to the overall sample.
	// Zero means DefaultScanRowsPerSecond. Tests set it very low (force
	// degradation) or very high (forbid it) to make the rule deterministic.
	ScanRowsPerSecond float64
}

func (c SmallGroupConfig) withDefaults() SmallGroupConfig {
	if c.SmallGroupFraction == 0 {
		c.SmallGroupFraction = 0.5 * c.BaseRate
	}
	if c.DistinctLimit == 0 {
		c.DistinctLimit = DefaultDistinctLimit
	}
	if c.ConfidenceLevel == 0 {
		c.ConfidenceLevel = DefaultConfidenceLevel
	}
	if c.Levels == nil {
		c.Levels = []HierarchyLevel{{MaxFraction: c.SmallGroupFraction, Rate: 1}}
	}
	return c
}

func (c SmallGroupConfig) validate() error {
	if c.BaseRate <= 0 || c.BaseRate > 1 {
		return fmt.Errorf("smallgroup: base rate %g out of (0,1]", c.BaseRate)
	}
	if c.SmallGroupFraction < 0 || c.SmallGroupFraction > 1 {
		return fmt.Errorf("smallgroup: small group fraction %g out of [0,1]", c.SmallGroupFraction)
	}
	for i, l := range c.Levels {
		if l.MaxFraction <= 0 || l.MaxFraction > 1 {
			return fmt.Errorf("smallgroup: level %d fraction %g out of (0,1]", i, l.MaxFraction)
		}
		if l.Rate <= 0 || l.Rate > 1 {
			return fmt.Errorf("smallgroup: level %d rate %g out of (0,1]", i, l.Rate)
		}
		if i == 0 && l.Rate != 1 {
			return fmt.Errorf("smallgroup: first level must have rate 1 (smallest groups stay exact)")
		}
		if i > 0 {
			if l.MaxFraction <= c.Levels[i-1].MaxFraction {
				return fmt.Errorf("smallgroup: level fractions must increase")
			}
			if l.Rate >= c.Levels[i-1].Rate {
				return fmt.Errorf("smallgroup: level rates must decrease")
			}
		}
	}
	return nil
}

// SmallGroup is the small group sampling strategy (§4).
type SmallGroup struct {
	cfg SmallGroupConfig
}

// NewSmallGroup returns the strategy with the given configuration.
func NewSmallGroup(cfg SmallGroupConfig) *SmallGroup { return &SmallGroup{cfg: cfg} }

// Name implements Strategy.
func (s *SmallGroup) Name() string { return "smallgroup" }

// Preprocess implements the two-scan pre-processing algorithm of §4.2.1.
//
// Scan 1 counts the occurrences of each distinct value in every candidate
// column (dropping columns whose distinct count exceeds τ) and derives each
// column's common-value set L(C) — generalised, under the multi-level
// extension, to a band assignment per value. Scan 2 assigns every row its
// membership bitmask, materialises the small group tables and draws the
// overall sample by reservoir sampling, all in one pass.
func (s *SmallGroup) Preprocess(db *engine.Database) (Prepared, error) {
	cfg := s.cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}

	candidates := cfg.Columns
	if candidates == nil {
		candidates = db.Columns()
	}
	n := db.NumRows()
	if n == 0 {
		return nil, fmt.Errorf("smallgroup: database %q is empty", db.Name)
	}

	// ---- Scan 1: per-column value frequencies with the τ cutoff. ----
	// Dictionary-encoded columns count by code into a dense array; numeric
	// columns use a hashtable with the paper's τ cutoff ("once the number of
	// distinct values for a column exceeds a threshold τ ... we remove that
	// column from S and cease to maintain its counts").
	counters := make([]*colCounter, 0, len(candidates))
	for _, name := range candidates {
		acc, err := db.Accessor(name)
		if err != nil {
			return nil, fmt.Errorf("smallgroup: %w", err)
		}
		ct, err := db.ColumnType(name)
		if err != nil {
			return nil, fmt.Errorf("smallgroup: %w", err)
		}
		counters = append(counters, newColCounter(name, acc, ct, cfg.DistinctLimit))
	}
	// Counters are independent (one column each, accessors are read-only), so
	// scan 1 fans out one full-column pass per worker. Counts are identical to
	// the serial row-major loop for any worker count.
	parallel.ForEach(cfg.Workers, len(counters), func(i int) {
		c := counters[i]
		for row := 0; row < n; row++ {
			c.observe(row)
		}
	})

	// Derive the band assignment per surviving column; drop columns with no
	// small groups ("It may be that a column C has no small groups, in which
	// case it is removed from S").
	var metas []ColumnMeta
	var bands []bandTester
	for _, c := range counters {
		cm, tester, ok := c.finish(int64(n), cfg.Levels)
		if !ok {
			continue
		}
		metas = append(metas, cm)
		bands = append(bands, tester)
	}
	meta := NewMetadata(int64(n), metas)

	// Pair tables (§4.2.3 variation): tuple frequencies over rows where both
	// columns are individually common.
	pairTesters, err := buildPairs(db, meta, cfg, bands)
	if err != nil {
		return nil, err
	}
	width := meta.Width()

	// ---- Scan 2: bitmask assignment, small group tables, overall sample. ----
	rng := randx.New(cfg.Seed)
	// maskOf is called from concurrent table builders later; band and pair
	// testers only read their frequency structures, so it is safe as long as
	// no tester captures mutable scratch state.
	maskOf := func(row int) bitmask.Mask {
		m := bitmask.New(width)
		for i, band := range bands {
			if band(row) >= 0 {
				m.Set(i)
			}
		}
		for _, pt := range pairTesters {
			if pt.test(row) {
				m.Set(pt.index)
			}
		}
		return m
	}

	target := int(cfg.BaseRate * float64(n))
	if target < 1 {
		target = 1
	}
	res := sample.NewReservoir(target, rng)
	tableRows := make([][]int, width)
	tableWeights := make([][]float64, width)
	weighted := make([]bool, width)
	for row := 0; row < n; row++ {
		for i, band := range bands {
			b := band(row)
			if b < 0 {
				continue
			}
			rate := cfg.Levels[b].Rate
			if rate < 1 {
				// Medium band: subsample at the level's rate; the bitmask
				// still marks the row so the overall sample filters it out.
				if rng.Float64() >= rate {
					continue
				}
				weighted[i] = true
			}
			tableRows[i] = append(tableRows[i], row)
			tableWeights[i] = append(tableWeights[i], 1/rate)
		}
		for _, pt := range pairTesters {
			if pt.test(row) {
				tableRows[pt.index] = append(tableRows[pt.index], row)
				tableWeights[pt.index] = append(tableWeights[pt.index], 1)
			}
		}
		res.Offer(row)
	}

	p := &smallGroupPrepared{db: db, meta: meta, cfg: cfg, tables: make([]sampleSource, width), pstats: &plannerStats{}}

	names := make([]string, width)
	for _, cm := range meta.Columns() {
		names[cm.Index] = "sg_" + cm.Column
	}
	for _, pm := range meta.Pairs() {
		names[pm.Index] = "sg_" + pm.Cols[0] + "__" + pm.Cols[1]
	}

	// Overall sample rows and weights.
	var overallRows []int
	var overallWeights []float64
	if cfg.Overall != nil {
		var err error
		overallRows, overallWeights, err = cfg.Overall.BuildOverall(db, target, cfg.Seed+1)
		if err != nil {
			return nil, fmt.Errorf("smallgroup: overall builder: %w", err)
		}
		p.overallScale = 1
	} else {
		overallRows = append([]int(nil), res.Items()...)
		sort.Ints(overallRows)
		p.overallScale = float64(n) / float64(len(overallRows))
	}

	// Materialise: flat join synopses by default, renormalized (§5.2.2
	// space optimisation) on request.
	var renorm *engine.Renormalizer
	if cfg.Renormalize {
		all := append(append([][]int{}, tableRows...), overallRows)
		renorm = engine.NewRenormalizer(db, all...)
		p.sharedDims = renorm.ReducedDims()
	}
	materialize := func(name string, rows []int, masks []bitmask.Mask, w []float64) (sampleSource, error) {
		if renorm != nil {
			src, err := renorm.Build(name, rows, masks, w)
			if err != nil {
				return sampleSource{}, err
			}
			return sampleSource{src: src, name: name}, nil
		}
		return sampleSource{src: db.Flatten(name, rows, masks, w), name: name}, nil
	}

	// Fan the per-table builds (bitmask computation + materialisation) out
	// across workers: task i builds small group table i, the last task builds
	// the overall sample. Every input (row lists, band testers, the base
	// data, the renormalizer's remap) is read-only by now, and each task
	// writes only its own slot, so the built tables are identical for any
	// worker count.
	buildOne := func(i int) error {
		rows, name := overallRows, "sg_overall"
		var w []float64 = overallWeights
		if i < width {
			rows, name = tableRows[i], names[i]
			w = nil
			if weighted[i] {
				w = tableWeights[i]
			}
		}
		masks := make([]bitmask.Mask, len(rows))
		for j, r := range rows {
			masks[j] = maskOf(r)
		}
		src, err := materialize(name, rows, masks, w)
		if err != nil {
			return err
		}
		if i < width {
			p.tables[i] = src
		} else {
			p.overall = src
		}
		return nil
	}
	if err := parallel.ForEachErr(cfg.Workers, width+1, buildOne); err != nil {
		return nil, err
	}
	return p, nil
}

// pairTester tests pair-table membership for one configured column pair.
type pairTester struct {
	index int
	test  func(row int) bool
}

// buildPairs derives the pair small group tables' metadata and testers. A
// row belongs to the pair table when both its values are individually common
// and the (v1,v2) combination's total frequency lies in the rare tail of
// mass at most t·N.
func buildPairs(db *engine.Database, meta *Metadata, cfg SmallGroupConfig, bands []bandTester) ([]pairTester, error) {
	if len(cfg.Pairs) == 0 {
		return nil, nil
	}
	n := db.NumRows()
	bandOf := make(map[string]bandTester, len(meta.Columns()))
	for i, cm := range meta.Columns() {
		bandOf[cm.Column] = bands[i]
	}
	commonRow := func(col string) (func(row int) bool, error) {
		if t, ok := bandOf[col]; ok {
			return func(row int) bool { return t(row) < 0 }, nil
		}
		// Column not in S: every value is common.
		if !db.HasColumn(col) {
			return nil, fmt.Errorf("smallgroup: unknown pair column %q", col)
		}
		return func(int) bool { return true }, nil
	}

	var testers []pairTester
	for _, pair := range cfg.Pairs {
		acc0, err := db.Accessor(pair[0])
		if err != nil {
			return nil, fmt.Errorf("smallgroup: %w", err)
		}
		acc1, err := db.Accessor(pair[1])
		if err != nil {
			return nil, fmt.Errorf("smallgroup: %w", err)
		}
		common0, err := commonRow(pair[0])
		if err != nil {
			return nil, err
		}
		common1, err := commonRow(pair[1])
		if err != nil {
			return nil, err
		}

		counts := make(map[engine.GroupKey]int64)
		tuple := make([]engine.Value, 2)
		var buf []byte
		for row := 0; row < n; row++ {
			if !common0(row) || !common1(row) {
				continue
			}
			tuple[0], tuple[1] = acc0.Value(row), acc1.Value(row)
			buf = engine.AppendKey(buf[:0], tuple)
			counts[engine.GroupKey(buf)]++
		}

		// Rare tuples: maximal ascending-frequency suffix with total mass
		// <= t*N.
		type kc struct {
			k engine.GroupKey
			c int64
		}
		all := make([]kc, 0, len(counts))
		for k, c := range counts {
			all = append(all, kc{k, c})
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].c != all[j].c {
				return all[i].c < all[j].c
			}
			return all[i].k < all[j].k
		})
		budget := int64(cfg.SmallGroupFraction * float64(n))
		rare := make(map[engine.GroupKey]struct{})
		var rareRows int64
		for _, e := range all {
			if rareRows+e.c > budget {
				break
			}
			rare[e.k] = struct{}{}
			rareRows += e.c
		}
		if len(rare) == 0 {
			continue // no small pair groups
		}
		index := meta.AddPair(PairMeta{Cols: pair, Rare: rare, RareRows: rareRows})

		a0, a1, c0, c1 := acc0, acc1, common0, common1
		rareSet := rare
		// No captured buffers: the tester must be callable from concurrent
		// mask-building workers (a per-call stack allocation is acceptable —
		// pair tables are opt-in and rows per table are few).
		testers = append(testers, pairTester{
			index: index,
			test: func(row int) bool {
				if !c0(row) || !c1(row) {
					return false
				}
				tvals := [2]engine.Value{a0.Value(row), a1.Value(row)}
				tbuf := engine.AppendKey(make([]byte, 0, 32), tvals[:])
				_, ok := rareSet[engine.GroupKey(tbuf)]
				return ok
			},
		})
	}
	return testers, nil
}

func sortedCounts(counts map[engine.Value]int64) []engine.ValueCount {
	out := make([]engine.ValueCount, 0, len(counts))
	for v, c := range counts {
		out = append(out, engine.ValueCount{Value: v, Count: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Value.Less(out[j].Value)
	})
	return out
}

// bandTester returns the hierarchy level of a base row's value for one
// column, or -1 when the value is common (outside every band).
type bandTester func(row int) int

// colCounter accumulates value frequencies for one candidate column during
// scan 1.
type colCounter struct {
	name  string
	limit int

	code  engine.CodeAccessor // non-nil for dictionary-encoded columns
	codes []int64             // counts by dictionary code
	acc   engine.ColumnAccessor
	count map[engine.Value]int64 // counts for numeric columns
	alive bool
}

func newColCounter(name string, acc engine.ColumnAccessor, t engine.Type, limit int) *colCounter {
	c := &colCounter{name: name, limit: limit, acc: acc, alive: true}
	if ca, ok := acc.(engine.CodeAccessor); ok && t == engine.String {
		c.code = ca
	} else {
		c.count = make(map[engine.Value]int64)
	}
	return c
}

func (c *colCounter) observe(row int) {
	if !c.alive {
		return
	}
	if c.code != nil {
		code := c.code.Code(row)
		for int(code) >= len(c.codes) {
			c.codes = append(c.codes, 0)
		}
		c.codes[code]++
		return
	}
	c.count[c.acc.Value(row)]++
	if len(c.count) > c.limit {
		c.alive = false
		c.count = nil
	}
}

// bandBounds converts the level fractions into cumulative row budgets.
func bandBounds(n int64, levels []HierarchyLevel) []int64 {
	out := make([]int64, len(levels))
	for i, l := range levels {
		out[i] = int64(l.MaxFraction * float64(n))
	}
	return out
}

// assignBands walks value counts in ascending frequency order, assigning
// each value the first level whose cumulative budget still covers it, and
// returns the per-value level plus the mass stored at level 0.
func assignBands(asc []int64, bounds []int64) (levels []int, banded int, rareRows int64) {
	levels = make([]int, len(asc))
	var cum int64
	for i, cnt := range asc {
		cum += cnt
		lvl := -1
		for j, b := range bounds {
			if cum <= b {
				lvl = j
				break
			}
		}
		levels[i] = lvl
		if lvl < 0 {
			// Frequencies only grow; later values are common too.
			for k := i + 1; k < len(asc); k++ {
				levels[k] = -1
			}
			break
		}
		banded++
		rareRows = cum
	}
	return levels, banded, rareRows
}

// finish derives the band assignment and metadata for the column. ok is
// false when the column was dropped from S (τ exceeded, or no small groups).
func (c *colCounter) finish(n int64, levels []HierarchyLevel) (ColumnMeta, bandTester, bool) {
	if !c.alive {
		return ColumnMeta{}, nil, false
	}
	if c.code != nil {
		return c.finishDict(n, levels)
	}
	vcs := sortedCounts(c.count) // descending
	asc := make([]int64, len(vcs))
	for i := range vcs {
		asc[i] = vcs[len(vcs)-1-i].Count
	}
	lvls, banded, rareRows := assignBands(asc, bandBounds(n, levels))
	if banded == 0 {
		return ColumnMeta{}, nil, false
	}
	common := make(map[engine.Value]struct{})
	var exact map[engine.Value]struct{}
	if len(levels) > 1 {
		exact = make(map[engine.Value]struct{})
	}
	valueLevel := make(map[engine.Value]int, len(vcs))
	for i, vc := range vcs {
		lvl := lvls[len(vcs)-1-i]
		switch {
		case lvl < 0:
			common[vc.Value] = struct{}{}
		case lvl == 0 && exact != nil:
			exact[vc.Value] = struct{}{}
		}
		if lvl >= 0 {
			valueLevel[vc.Value] = lvl
		}
	}
	cm := ColumnMeta{Column: c.name, Common: common, Exact: exact, RareRows: rareRows, Distinct: len(vcs)}
	acc := c.acc
	tester := func(row int) int {
		if lvl, ok := valueLevel[acc.Value(row)]; ok {
			return lvl
		}
		return -1
	}
	return cm, tester, true
}

func (c *colCounter) finishDict(n int64, levels []HierarchyLevel) (ColumnMeta, bandTester, bool) {
	type cc struct {
		code  int32
		count int64
	}
	var vcs []cc
	for code, count := range c.codes {
		if count > 0 {
			vcs = append(vcs, cc{int32(code), count})
		}
	}
	if len(vcs) > c.limit {
		return ColumnMeta{}, nil, false
	}
	sort.Slice(vcs, func(i, j int) bool {
		if vcs[i].count != vcs[j].count {
			return vcs[i].count < vcs[j].count // ascending
		}
		return c.code.DictValue(vcs[i].code) < c.code.DictValue(vcs[j].code)
	})
	asc := make([]int64, len(vcs))
	for i, vc := range vcs {
		asc[i] = vc.count
	}
	lvls, banded, rareRows := assignBands(asc, bandBounds(n, levels))
	if banded == 0 {
		return ColumnMeta{}, nil, false
	}
	levelByCode := make([]int8, len(c.codes))
	for i := range levelByCode {
		levelByCode[i] = -1
	}
	common := make(map[engine.Value]struct{})
	var exact map[engine.Value]struct{}
	if len(levels) > 1 {
		exact = make(map[engine.Value]struct{})
	}
	for i, vc := range vcs {
		lvl := lvls[i]
		levelByCode[vc.code] = int8(lvl)
		v := engine.StringVal(c.code.DictValue(vc.code))
		switch {
		case lvl < 0:
			common[v] = struct{}{}
		case lvl == 0 && exact != nil:
			exact[v] = struct{}{}
		}
	}
	cm := ColumnMeta{Column: c.name, Common: common, Exact: exact, RareRows: rareRows, Distinct: len(vcs)}
	code := c.code
	tester := func(row int) int { return int(levelByCode[code.Code(row)]) }
	return cm, tester, true
}
