// Package datagen_test checks the paper's two evaluation databases (§5.2.1):
// the skewed TPC-H star TPCHxGyz and the wide SALES star, as generated from
// the embedded scenario specs by scenario.BuiltinDatabase. The experiments,
// examples and command-line tools all draw their data this way, so these
// tests pin the shape, skew and determinism they depend on.
package datagen_test

import (
	"math"
	"testing"

	"dynsample/internal/engine"
	"dynsample/internal/scenario"
)

func generate(t *testing.T, name string, rows int, z float64, seed int64) *engine.Database {
	t.Helper()
	db, err := scenario.BuiltinDatabase(name, rows, z, seed)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// checkShape checks the fact rows, the dimension count, the width of the
// joined view, that cols are in it and that the FK columns are not.
func checkShape(t *testing.T, db *engine.Database, rows, dims, minCols, maxCols int, cols, fks []string) {
	t.Helper()
	if db.NumRows() != rows {
		t.Errorf("fact rows = %d, want %d", db.NumRows(), rows)
	}
	if len(db.Dims) != dims {
		t.Errorf("dims = %d, want %d", len(db.Dims), dims)
	}
	if got := len(db.Columns()); got < minCols || got > maxCols {
		t.Errorf("view columns = %d, want %d-%d", got, minCols, maxCols)
	}
	for _, col := range cols {
		if !db.HasColumn(col) {
			t.Errorf("missing column %q", col)
		}
	}
	for _, fk := range fks {
		if db.HasColumn(fk) {
			t.Errorf("FK column %q leaked into view", fk)
		}
	}
}

// countsSumToRows runs q exactly, its first aggregate a COUNT, and checks
// that the dimension joins account for every fact row.
func countsSumToRows(t *testing.T, db *engine.Database, q *engine.Query) {
	t.Helper()
	res, err := engine.ExecuteExact(db, q)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, g := range res.Groups() {
		total += g.Vals[0]
	}
	if res.NumGroups() == 0 || int(total) != db.NumRows() {
		t.Errorf("%d groups by %v, counts sum to %d, want %d", res.NumGroups(), q.GroupBy, int(total), db.NumRows())
	}
}

// checkDeterministic generates name twice with one seed and once with
// another, and compares cols row by row.
func checkDeterministic(t *testing.T, name string, rows int, cols ...string) {
	t.Helper()
	dump := func(seed int64) []any {
		db := generate(t, name, rows, 1.2, seed)
		var vals []any
		for _, col := range cols {
			acc, err := db.Accessor(col)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < db.NumRows(); i++ {
				vals = append(vals, acc.Value(i))
			}
		}
		return vals
	}
	a, b, c := dump(7), dump(7), dump(8)
	same := func(x, y []any) bool {
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return len(x) == len(y)
	}
	if !same(a, b) {
		t.Error("same seed generated different data")
	}
	if same(a, c) {
		t.Error("different seeds generated identical data")
	}
}

// checkValidation checks that non-positive fact rows and a negative or NaN
// skew are errors, not panics.
func checkValidation(t *testing.T, name string) {
	t.Helper()
	for _, tc := range []struct {
		rows int
		z    float64
	}{{0, 1}, {-5, 1}, {1000, -1}, {1000, math.NaN()}} {
		if _, err := scenario.BuiltinDatabase(name, tc.rows, tc.z, 1); err == nil {
			t.Errorf("%s with %d rows, z=%g accepted", name, tc.rows, tc.z)
		}
	}
}

func TestTPCHShape(t *testing.T) {
	checkShape(t, generate(t, "tpch", 10000, 1.5, 1), 10000, 4, 30, 40,
		[]string{"l_quantity", "l_extendedprice", "l_shipmode", "p_brand", "s_nation", "c_mktsegment", "o_orderpriority"},
		[]string{"part_fk", "supp_fk", "cust_fk", "ord_fk"})
}

func TestTPCHDeterministic(t *testing.T) {
	checkDeterministic(t, "tpch", 2000, "l_quantity", "p_brand")
}

func TestTPCHValidation(t *testing.T) { checkValidation(t, "tpch") }

func TestTPCHQueriesRun(t *testing.T) {
	countsSumToRows(t, generate(t, "tpch", 5000, 2.0, 3), &engine.Query{
		GroupBy: []string{"s_region", "l_returnflag"},
		Aggs:    []engine.Aggregate{{Kind: engine.Count}, {Kind: engine.Sum, Col: "l_extendedprice"}},
	})
}

func TestSalesShape(t *testing.T) {
	// Column budget: roughly 245 logical columns (FKs excluded from view).
	checkShape(t, generate(t, "sales", 5000, 1.2, 4), 5000, 6, 200, 245,
		[]string{"product_line", "store_region", "customer_segment", "sale_amount", "units", "margin"},
		[]string{"product_fk", "store_fk", "customer_fk"})
}

func TestSalesMeasureSkew(t *testing.T) {
	db := generate(t, "sales", 20000, 1.2, 5)
	acc, err := db.Accessor("sale_amount")
	if err != nil {
		t.Fatal(err)
	}
	var sum, max float64
	for i := 0; i < db.NumRows(); i++ {
		v := acc.Float(i)
		if v <= 0 {
			t.Fatalf("non-positive sale_amount %g", v)
		}
		sum += v
		max = math.Max(max, v)
	}
	// Log-normal tail: the max should dwarf the mean.
	if mean := sum / float64(db.NumRows()); max < 10*mean {
		t.Errorf("sale_amount not heavy-tailed: max %g mean %g", max, mean)
	}
}

func TestSalesDeterministic(t *testing.T) {
	checkDeterministic(t, "sales", 1000, "sale_amount", "store_region", "product_attr03")
}

func TestSalesValidation(t *testing.T) {
	checkValidation(t, "sales")
	if _, err := scenario.BuiltinDatabase("nope", 1000, 1.2, 1); err == nil {
		t.Error("unknown database accepted")
	}
}

func TestSalesDimensionJoins(t *testing.T) {
	countsSumToRows(t, generate(t, "sales", 2000, 1.2, 6), &engine.Query{
		GroupBy: []string{"store_region"},
		Aggs:    []engine.Aggregate{{Kind: engine.Count}},
	})
}
