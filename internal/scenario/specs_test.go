package scenario

import (
	"fmt"
	"testing"
)

func TestBuiltinSpecsListAndParse(t *testing.T) {
	names := BuiltinSpecs()
	want := map[string]bool{"sales": false, "tpch": false}
	for _, n := range names {
		if _, ok := want[n]; ok {
			want[n] = true
		}
	}
	for n, seen := range want {
		if !seen {
			t.Fatalf("builtin spec %q missing from %v", n, names)
		}
	}
	for _, n := range names {
		s, err := BuiltinSpec(n)
		if err != nil {
			t.Fatalf("BuiltinSpec(%q): %v", n, err)
		}
		if s.FactTable() == nil {
			t.Fatalf("builtin spec %q has no fact table", n)
		}
	}
}

func TestBuiltinSpecUnknown(t *testing.T) {
	if _, err := BuiltinSpec("nope"); err == nil {
		t.Fatal("expected error for unknown builtin spec")
	}
}

// The builtin specs must keep the column names the hand-coded generators
// used, so downstream CSV consumers and examples see a familiar schema.
func TestBuiltinSpecSchemaShape(t *testing.T) {
	sales, err := BuiltinSpec("sales")
	if err != nil {
		t.Fatal(err)
	}
	if ft := sales.FactTable(); ft == nil || ft.Name != "sales_fact" {
		t.Fatalf("sales fact table = %+v, want sales_fact", ft)
	}
	if got := len(sales.Tables); got != 7 {
		t.Fatalf("sales tables = %d, want 7 (fact + 6 dims)", got)
	}

	tpch, err := BuiltinSpec("tpch")
	if err != nil {
		t.Fatal(err)
	}
	ft := tpch.FactTable()
	if ft == nil || ft.Name != "lineitem" {
		t.Fatalf("tpch fact table = %+v, want lineitem", ft)
	}
	if ft.Rows != 100000 {
		t.Fatalf("tpch lineitem rows = %d, want 100000 (SF1)", ft.Rows)
	}
	cols := map[string]bool{}
	for _, c := range ft.Columns {
		cols[c.Name] = true
	}
	for _, name := range []string{"l_quantity", "l_extendedprice", "l_returnflag", "l_shipdate"} {
		if !cols[name] {
			t.Fatalf("tpch lineitem missing column %s", name)
		}
	}
}

// A small builtin-spec generation sanity check: the spec path must produce
// a database whose dims line up with their FK columns.
func TestBuiltinSpecGenerates(t *testing.T) {
	s, err := BuiltinSpec("sales")
	if err != nil {
		t.Fatal(err)
	}
	s.FactTable().Rows = 500
	for i := range s.Tables {
		if !s.Tables[i].Fact && s.Tables[i].Rows > 200 {
			s.Tables[i].Rows = 200
		}
	}
	db, err := Generate(s)
	if err != nil {
		t.Fatal(err)
	}
	if db.Fact.NumRows() != 500 {
		t.Fatalf("fact rows = %d, want 500", db.Fact.NumRows())
	}
	if len(db.Dims) != 6 {
		t.Fatalf("dims = %d, want 6", len(db.Dims))
	}
}

// BuiltinDatabase scales every dimension by the fact table's factor, never
// below 10 rows.
func TestBuiltinDatabaseScalesDimensions(t *testing.T) {
	spec, err := BuiltinSpec("tpch")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{}
	for _, tb := range spec.Tables {
		want[tb.Name] = tb.Rows / 4
	}
	db, err := BuiltinDatabase("tpch", want["lineitem"], 2.0, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int{db.Fact.Name: db.Fact.NumRows()}
	for _, d := range db.Dims {
		got[d.Table.Name] = d.Table.NumRows()
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("table rows = %v, want %v", got, want)
	}
	small, err := BuiltinDatabase("sales", 100, 1.2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range small.Dims {
		if d.Table.NumRows() < 10 {
			t.Errorf("%s shrank to %d rows", d.Table.Name, d.Table.NumRows())
		}
	}
}

// z reaches every zipf column, padding included: more skew puts more mass
// on the most frequent value.
func TestBuiltinDatabaseAppliesSkew(t *testing.T) {
	top := func(name, col string, z float64) float64 {
		db, err := BuiltinDatabase(name, 5000, z, 2)
		if err != nil {
			t.Fatal(err)
		}
		vcs, err := db.DistinctValues(col)
		if err != nil {
			t.Fatal(err)
		}
		return float64(vcs[0].Count) / float64(db.NumRows())
	}
	for _, c := range [][2]string{{"tpch", "l_shipmode"}, {"tpch", "p_brand"}, {"sales", "store_attr00"}} {
		if low, high := top(c[0], c[1], 0), top(c[0], c[1], 2.5); high <= low {
			t.Errorf("%s.%s: top-value share %.3f at z=2.5, %.3f at z=0", c[0], c[1], high, low)
		}
	}
}
