// Workloadtuned demonstrates the workload-aware features: a recorded query
// workload trims the small group candidate columns (§4.2.3), a
// workload-weighted sample (the §2 baseline of Chaudhuri-Das-Narasayya) is
// built from the same workload, and the tuned small group sample set is
// persisted to disk and restored, answering queries with no access to the
// base data.
package main

import (
	"bytes"
	"fmt"
	"log"

	"dynsample/internal/core"
	"dynsample/internal/engine"
	"dynsample/internal/metrics"
	"dynsample/internal/scenario"
	"dynsample/internal/weighted"
	"dynsample/internal/workload"
)

func main() {
	db, err := scenario.BuiltinDatabase("tpch", 150000, 2.0, 21)
	if err != nil {
		log.Fatal(err)
	}

	// A recorded workload: the analyst mostly groups by a handful of columns.
	gen, err := workload.NewGenerator(db, workload.Config{
		GroupingColumns: 2,
		Predicates:      1,
		Aggregate:       engine.Count,
		Columns: []string{"p_brand", "p_category", "s_region", "o_orderpriority",
			"l_returnflag", "l_shipmode", "o_clerk"},
		MassSelectivity: true,
		Seed:            22,
	})
	if err != nil {
		log.Fatal(err)
	}
	recorded := gen.Queries(30)

	// 1. Trim the candidate column set to what the workload actually groups by.
	cols := core.TrimColumns(recorded, 2)
	fmt.Printf("workload references %d columns at least twice: %v\n\n", len(cols), cols)

	// 2. Build a tuned small group sample over just those columns.
	tuned, err := core.NewSmallGroup(core.SmallGroupConfig{
		BaseRate: 0.01,
		Columns:  cols,
		Seed:     23,
	}).Preprocess(db)
	if err != nil {
		log.Fatal(err)
	}
	full, err := core.NewSmallGroup(core.SmallGroupConfig{BaseRate: 0.01, Seed: 23}).Preprocess(db)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tuned sample set: %6d rows\nfull sample set:  %6d rows (%.1fx larger)\n",
		tuned.SampleRows(), full.SampleRows(), float64(full.SampleRows())/float64(tuned.SampleRows()))
	fmt.Println("(on in-workload queries the tuned set matches the full set's accuracy")
	fmt.Println(" at a fraction of the storage — the §4.2.3 workload-trimming argument)")
	fmt.Println()

	// 3. The workload-weighted baseline trained on the same workload.
	wtd, err := weighted.New(weighted.Config{Rate: 0.015, Workload: recorded, Seed: 24}).Preprocess(db)
	if err != nil {
		log.Fatal(err)
	}

	// Evaluate all three on fresh queries from the same workload distribution.
	eval := gen.Queries(10)
	score := func(p core.Prepared) metrics.Accuracy {
		var accs []metrics.Accuracy
		for _, q := range eval {
			exact, err := engine.ExecuteExact(db, q)
			if err != nil {
				log.Fatal(err)
			}
			if exact.NumGroups() == 0 {
				continue
			}
			ans, err := p.Answer(q)
			if err != nil {
				log.Fatal(err)
			}
			a, err := metrics.Compare(exact, ans.Result, 0)
			if err != nil {
				log.Fatal(err)
			}
			accs = append(accs, a)
		}
		return metrics.Mean(accs)
	}
	fmt.Printf("%-28s%-12s%-12s\n", "strategy", "RelErr", "missed%")
	for _, s := range []struct {
		name string
		p    core.Prepared
	}{
		{"smallgroup (tuned columns)", tuned},
		{"smallgroup (all columns)", full},
		{"workload-weighted sample", wtd},
	} {
		m := score(s.p)
		fmt.Printf("%-28s%-12.4f%-12.1f\n", s.name, m.RelErr, m.PctGroups)
	}

	// 4. Persist the tuned sample set and answer from the restored copy.
	var buf bytes.Buffer
	if err := core.SaveSmallGroupSnapshot(&buf, tuned); err != nil {
		log.Fatal(err)
	}
	size := buf.Len()
	restored, err := core.LoadSmallGroupSnapshot(&buf)
	if err != nil {
		log.Fatal(err)
	}
	q := eval[0]
	a1, _ := tuned.Answer(q)
	a2, _ := restored.Answer(q)
	fmt.Printf("\nsaved sample set: %d bytes; restored answer matches: %v\n",
		size, a1.Result.NumGroups() == a2.Result.NumGroups())
}
