package core_test

import (
	"math"
	"testing"

	"dynsample/internal/core"
	"dynsample/internal/engine"
	"dynsample/internal/scenario"
)

func prep(t *testing.T, db *engine.Database, cfg core.SmallGroupConfig) core.Prepared {
	t.Helper()
	p, err := core.NewSmallGroup(cfg).Preprocess(db)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRenormalizedMatchesFlatAnswers(t *testing.T) {
	db, err := scenario.BuiltinDatabase("tpch", 30000, 2.0, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.SmallGroupConfig{BaseRate: 0.02, Seed: 6}
	flat := prep(t, db, cfg)
	cfg.Renormalize = true
	ren := prep(t, db, cfg)

	queries := []*engine.Query{
		{GroupBy: []string{"p_brand"}, Aggs: []engine.Aggregate{{Kind: engine.Count}}},
		{GroupBy: []string{"s_region", "l_returnflag"},
			Aggs:  []engine.Aggregate{{Kind: engine.Sum, Col: "l_extendedprice"}},
			Where: []engine.Predicate{engine.NewIn("c_region", engine.StringVal("c_region_000"))}},
		{GroupBy: []string{"o_orderpriority"}, Aggs: []engine.Aggregate{{Kind: engine.Count}}},
	}
	for qi, q := range queries {
		af, err := flat.Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		ar, err := ren.Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		// Same seed -> identical sample row sets -> identical answers.
		if af.Result.NumGroups() != ar.Result.NumGroups() {
			t.Fatalf("query %d: %d vs %d groups", qi, af.Result.NumGroups(), ar.Result.NumGroups())
		}
		for _, k := range af.Result.Keys() {
			gf, gr := af.Result.Group(k), ar.Result.Group(k)
			if gr == nil {
				t.Fatalf("query %d: group %v missing under renormalized storage", qi, gf.Key)
			}
			if gf.Exact != gr.Exact {
				t.Errorf("query %d group %v: exactness differs", qi, gf.Key)
			}
			for i := range gf.Vals {
				if math.Abs(gf.Vals[i]-gr.Vals[i]) > 1e-9*(1+math.Abs(gf.Vals[i])) {
					t.Errorf("query %d group %v agg %d: flat %g renorm %g", qi, gf.Key, i, gf.Vals[i], gr.Vals[i])
				}
			}
		}
	}
}

func TestRenormalizedSavesSpaceOnWideSchema(t *testing.T) {
	db, err := scenario.BuiltinDatabase("sales", 20000, 1.2, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.SmallGroupConfig{BaseRate: 0.01, Seed: 8}
	flat := prep(t, db, cfg)
	cfg.Renormalize = true
	ren := prep(t, db, cfg)
	if flat.SampleRows() != ren.SampleRows() {
		t.Fatalf("sample rows differ: %d vs %d", flat.SampleRows(), ren.SampleRows())
	}
	fb, rb := flat.SampleBytes(), ren.SampleBytes()
	if rb >= fb {
		t.Errorf("renormalized storage (%d bytes) not smaller than flat (%d bytes)", rb, fb)
	}
	t.Logf("flat %d bytes, renormalized %d bytes (%.1fx smaller)", fb, rb, float64(fb)/float64(rb))
}

func TestRenormalizerSharedDims(t *testing.T) {
	db, err := scenario.BuiltinDatabase("tpch", 5000, 1.5, 10)
	if err != nil {
		t.Fatal(err)
	}
	rowsA := []int{0, 10, 20, 30}
	rowsB := []int{5, 10, 4999}
	r := engine.NewRenormalizer(db, rowsA, rowsB)
	a, err := r.Build("a", rowsA, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Build("b", rowsB, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Both samples share the same reduced dimension table objects.
	for d := range a.Dims {
		if a.Dims[d].Table != b.Dims[d].Table {
			t.Errorf("dimension %d not shared", d)
		}
		if a.Dims[d].Table.NumRows() >= db.Dims[d].Table.NumRows() && db.Dims[d].Table.NumRows() > 7 {
			t.Errorf("dimension %d not reduced: %d rows", d, a.Dims[d].Table.NumRows())
		}
	}
	// The renormalized view values must match the base view row for row.
	for _, col := range []string{"p_brand", "s_region", "l_quantity"} {
		base, _ := db.Accessor(col)
		red, err := a.Accessor(col)
		if err != nil {
			t.Fatal(err)
		}
		for i, row := range rowsA {
			if red.Value(i) != base.Value(row) {
				t.Errorf("column %s row %d: %v vs base %v", col, i, red.Value(i), base.Value(row))
			}
		}
	}
	// Rows not covered by the renormalizer are rejected.
	if _, err := r.Build("c", []int{1}, nil, nil); err == nil {
		t.Error("uncovered row set accepted")
	}
}
