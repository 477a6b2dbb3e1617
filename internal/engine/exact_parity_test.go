package engine_test

import (
	"math"
	"testing"

	"dynsample/internal/engine"
	"dynsample/internal/scenario"
)

// TestExecuteExactMatchesPartitionedScan: there is one scan kernel, so the
// ground truth agrees bit-for-bit with an approximate-path scan at any
// worker count — float sums included, whose value depends on summation
// order.
func TestExecuteExactMatchesPartitionedScan(t *testing.T) {
	spec, err := scenario.BuiltinSpec("tpch")
	if err != nil {
		t.Fatal(err)
	}
	db, err := scenario.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	q := &engine.Query{
		GroupBy: []string{"l_returnflag"},
		Aggs:    []engine.Aggregate{{Kind: engine.Sum, Col: "l_extendedprice"}},
	}
	exact, err := engine.ExecuteExact(db, q)
	if err != nil {
		t.Fatal(err)
	}
	if exact.NumGroups() != 3 {
		t.Fatalf("%d groups, want 3", exact.NumGroups())
	}
	for _, workers := range []int{1, 4} {
		res, err := engine.Execute(db, q, engine.ExecOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range exact.Keys() {
			want, got := exact.Group(k).Vals[0], res.Group(k).Vals[0]
			if math.Float64bits(want) != math.Float64bits(got) {
				t.Errorf("workers=%d group %v: ExecuteExact %v, Execute %v", workers, exact.Group(k).Key, want, got)
			}
		}
	}
}
