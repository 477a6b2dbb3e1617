package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"dynsample/internal/engine"
)

// A Case is the declarative check half of a scenario directory: which
// strategy configuration to build over the generated data, what query
// workload to replay against the live server, and the pass/fail gates the
// measured accuracy, throughput and resource figures must clear. It lives in
// <dir>/case.json next to the data spec in <dir>/spec.json.
type Case struct {
	// Name identifies the case; the verdict file is SCENARIO_<name>.json.
	// Empty means the directory base name.
	Name string `json:"name,omitempty"`
	// Description is a one-line human summary carried into the verdict.
	Description string `json:"description,omitempty"`
	// Strategy configures the small-group build under test.
	Strategy StrategySpec `json:"strategy"`
	// Workload is the internal/workload recipe replayed over HTTP.
	Workload WorkloadSpec `json:"workload"`
	// Bounds, when non-nil, sends every workload query as a bounded request
	// (error_bound/confidence), exercising the §4.4 planner; the verdict then
	// compares the planner's predicted error against the true error per query.
	Bounds *BoundsSpec `json:"bounds,omitempty"`
	// Gates are the pass/fail thresholds.
	Gates GateSpec `json:"gates"`
}

// StrategySpec configures the strategy build for one case.
type StrategySpec struct {
	// BaseRate is the overall sampling rate r, in (0, 1].
	BaseRate float64 `json:"base_rate"`
	// Seed drives sample construction.
	Seed int64 `json:"seed"`
	// Workers is the runtime scan parallelism; zero means one worker.
	Workers int `json:"workers,omitempty"`
}

// WorkloadSpec is the JSON shape of a workload.Config plus the query count.
type WorkloadSpec struct {
	// Queries is how many random queries the case replays.
	Queries int `json:"queries"`
	// Seed drives query generation.
	Seed int64 `json:"seed"`
	// GroupingColumns per query (the paper varies 1-4).
	GroupingColumns int `json:"grouping_columns"`
	// Predicates is the number of conjunctive selection predicates.
	Predicates int `json:"predicates,omitempty"`
	// MassSelectivity calibrates predicates by row mass (see
	// workload.Config.MassSelectivity).
	MassSelectivity bool `json:"mass_selectivity,omitempty"`
	// Aggregate is "count" or "sum".
	Aggregate string `json:"aggregate"`
	// Measures lists SUM-able columns; required for "sum".
	Measures []string `json:"measures,omitempty"`
	// MaxDistinct excludes near-unique columns; zero means the workload
	// package default (1000).
	MaxDistinct int `json:"max_distinct,omitempty"`
	// Columns restricts the candidate column pool; empty means all.
	Columns []string `json:"columns,omitempty"`
}

// BoundsSpec is the per-query bound sent with each workload query.
type BoundsSpec struct {
	// ErrorBound is the requested maximum mean per-group relative error, in
	// (0, 1).
	ErrorBound float64 `json:"error_bound"`
	// Confidence is the level the bound is stated at; zero means the server
	// default (0.95).
	Confidence float64 `json:"confidence,omitempty"`
}

// GateSpec declares the pass/fail thresholds. Zero-valued gates are skipped
// except MaxRelErr, which every case must declare — a scenario that asserts
// nothing about accuracy is not a check.
type GateSpec struct {
	// MaxRelErr is the ceiling on the mean true relative error (Definition
	// 4.2, measured against /v1/exact) averaged over the workload. Required.
	MaxRelErr float64 `json:"max_rel_err"`
	// MinQPS is the floor on approximate-query throughput over HTTP.
	MinQPS float64 `json:"min_qps,omitempty"`
	// MaxSampleMB is the ceiling on sample memory (Prepared.SampleBytes).
	MaxSampleMB float64 `json:"max_sample_mb,omitempty"`
	// MaxBuildMS is the ceiling on data generation + pre-processing time.
	MaxBuildMS int64 `json:"max_build_ms,omitempty"`
	// MaxViolationRate is the ceiling on the fraction of measured queries
	// whose true error exceeded the planner's predicted error — the bound
	// honesty gate. Nil skips it; a pointer so honest-by-luck cases can pin
	// it to exactly 0.
	MaxViolationRate *float64 `json:"max_violation_rate,omitempty"`
	// MinViolationRate is the floor on that same fraction. The correlated
	// cases use it to assert that the documented §4.4 independence failure
	// actually reproduces — a study case that silently stops violating its
	// predictions should fail loudly, because EXPERIMENTS.md documents the
	// violation.
	MinViolationRate *float64 `json:"min_violation_rate,omitempty"`
}

// aggKind maps the JSON aggregate name to the engine kind.
func (w *WorkloadSpec) aggKind() (engine.AggKind, error) {
	switch w.Aggregate {
	case "count":
		return engine.Count, nil
	case "sum":
		return engine.Sum, nil
	default:
		return 0, fmt.Errorf("scenario: unknown aggregate %q (want \"count\" or \"sum\")", w.Aggregate)
	}
}

// ParseCase decodes a case declaration, rejecting unknown fields so typos in
// gate names fail loudly instead of silently gating nothing.
func ParseCase(r io.Reader) (*Case, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var c Case
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("scenario: parse case: %w", err)
	}
	return &c, nil
}

// Validate checks the case declaration in isolation (column references are
// checked later against the generated database).
func (c *Case) Validate() error {
	if c.Strategy.BaseRate <= 0 || c.Strategy.BaseRate > 1 {
		return fmt.Errorf("scenario: case %s: strategy base_rate %g outside (0, 1]", c.Name, c.Strategy.BaseRate)
	}
	if c.Workload.Queries < 1 {
		return fmt.Errorf("scenario: case %s: workload queries %d, want >= 1", c.Name, c.Workload.Queries)
	}
	if c.Workload.GroupingColumns < 1 {
		return fmt.Errorf("scenario: case %s: workload grouping_columns %d, want >= 1", c.Name, c.Workload.GroupingColumns)
	}
	kind, err := c.Workload.aggKind()
	if err != nil {
		return err
	}
	if kind == engine.Sum && len(c.Workload.Measures) == 0 {
		return fmt.Errorf("scenario: case %s: sum workload needs measures", c.Name)
	}
	if b := c.Bounds; b != nil {
		if b.ErrorBound <= 0 || b.ErrorBound >= 1 {
			return fmt.Errorf("scenario: case %s: bounds error_bound %g outside (0, 1)", c.Name, b.ErrorBound)
		}
		if b.Confidence < 0 || b.Confidence >= 1 {
			return fmt.Errorf("scenario: case %s: bounds confidence %g outside [0, 1)", c.Name, b.Confidence)
		}
	}
	g := c.Gates
	if g.MaxRelErr <= 0 {
		return fmt.Errorf("scenario: case %s: gates.max_rel_err is required and must be > 0", c.Name)
	}
	for name, p := range map[string]*float64{"max_violation_rate": g.MaxViolationRate, "min_violation_rate": g.MinViolationRate} {
		if p != nil && (*p < 0 || *p > 1) {
			return fmt.Errorf("scenario: case %s: gates.%s %g outside [0, 1]", c.Name, name, *p)
		}
	}
	if g.MinViolationRate != nil && g.MaxViolationRate != nil && *g.MinViolationRate > *g.MaxViolationRate {
		return fmt.Errorf("scenario: case %s: min_violation_rate %g > max_violation_rate %g", c.Name, *g.MinViolationRate, *g.MaxViolationRate)
	}
	return nil
}

// LoadCase reads a scenario directory: case.json (the check declaration) and
// spec.json (the data spec), both validated. The case name defaults to the
// directory base name.
func LoadCase(dir string) (*Case, *Spec, error) {
	f, err := os.Open(filepath.Join(dir, "case.json"))
	if err != nil {
		return nil, nil, fmt.Errorf("scenario: %w", err)
	}
	defer f.Close()
	c, err := ParseCase(f)
	if err != nil {
		return nil, nil, fmt.Errorf("scenario: %s: %w", dir, err)
	}
	if c.Name == "" {
		c.Name = filepath.Base(dir)
	}
	if err := c.Validate(); err != nil {
		return nil, nil, err
	}
	spec, err := LoadSpec(filepath.Join(dir, "spec.json"))
	if err != nil {
		return nil, nil, err
	}
	return c, spec, nil
}
