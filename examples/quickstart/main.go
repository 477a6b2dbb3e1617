// Quickstart: build a small star-schema database, pre-process it with small
// group sampling, and answer a group-by query approximately — comparing the
// approximate answer (with confidence intervals and exactness flags) against
// the exact answer.
package main

import (
	"fmt"
	"log"

	"dynsample/internal/core"
	"dynsample/internal/engine"
	"dynsample/internal/metrics"
	"dynsample/internal/scenario"
)

func main() {
	// 1. A skewed TPC-H-like star schema: 100k fact rows, Zipf z=2.
	db, err := scenario.BuiltinDatabase("tpch", 100000, 2.0, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("database %s: %d rows, %d columns\n\n", db.Name, db.NumRows(), len(db.Columns()))

	// 2. Pre-processing phase: a 1% overall sample plus one small group
	//    table per column (each at most 0.5% of the data), per the paper's
	//    recommended allocation ratio of 0.5.
	sys := core.NewSystem(db)
	if err := sys.AddStrategy(core.NewSmallGroup(core.SmallGroupConfig{BaseRate: 0.01, Seed: 2})); err != nil {
		log.Fatal(err)
	}
	p, _ := sys.Prepared("smallgroup")
	fmt.Printf("pre-processing done in %v: %d sample rows (%.1f%% of the data)\n\n",
		sys.PreprocessTime("smallgroup").Round(1e6),
		p.SampleRows(), 100*float64(p.SampleRows())/float64(db.NumRows()))

	// 3. Runtime phase: a group-by COUNT query over a skewed column. Rare
	//    clerks fall into o_clerk's small group table and come back exact;
	//    common clerks are estimated from the overall sample.
	q := &engine.Query{
		GroupBy: []string{"p_category"},
		Aggs:    []engine.Aggregate{{Kind: engine.Count}, {Kind: engine.Sum, Col: "l_extendedprice"}},
		Where:   []engine.Predicate{engine.NewIn("l_returnflag", engine.StringVal("l_returnflag_000"), engine.StringVal("l_returnflag_001"))},
	}
	fmt.Println("query:", q)

	ans, err := sys.Approx("smallgroup", q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nrewritten against the sample tables:")
	fmt.Println(ans.Rewrite.SQL())

	fmt.Println("\napproximate answer:")
	for _, g := range ans.Result.Groups() {
		key := engine.EncodeKey(g.Key)
		iv := ans.Interval(key, 0)
		tag := fmt.Sprintf("± %.0f (95%% CI)", iv.Width()/2)
		if g.Exact {
			tag = "(exact — from a small group table)"
		}
		fmt.Printf("  %-24s count=%10.0f %s\n", g.Key[0], g.Vals[0], tag)
	}

	// 4. Compare against the exact answer.
	exact, exactTime, err := sys.Exact(q)
	if err != nil {
		log.Fatal(err)
	}
	acc, err := metrics.Compare(exact, ans.Result, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nexact scan: %v; approximate: %v (%.0fx faster)\n",
		exactTime.Round(1e6), ans.Elapsed.Round(1e3),
		float64(exactTime)/float64(ans.Elapsed))
	fmt.Printf("accuracy: RelErr=%.4f, groups missed=%.1f%%\n", acc.RelErr, acc.PctGroups)
}
