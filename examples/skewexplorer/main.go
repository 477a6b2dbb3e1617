// Skewexplorer sweeps the data skew of a TPC-H-like database and shows where
// small group sampling beats plain uniform sampling — the paper's Figure 6
// narrative, runnable in under a minute. For each Zipf parameter it builds
// both sample sets with matched per-query space and reports the two error
// metrics over a shared random workload.
package main

import (
	"fmt"
	"log"

	"dynsample/internal/core"
	"dynsample/internal/engine"
	"dynsample/internal/metrics"
	"dynsample/internal/scenario"
	"dynsample/internal/uniform"
	"dynsample/internal/workload"
)

const (
	rows     = 120000
	baseRate = 0.01
	gamma    = 0.5
	groupBys = 3
	queries  = 12
)

func main() {
	fmt.Printf("TPCH-like data, %d rows, COUNT queries with %d grouping columns, r=%g\n\n", rows, groupBys, baseRate)
	fmt.Printf("%-8s%-14s%-14s%-16s%-16s\n", "skew", "SG RelErr", "Uni RelErr", "SG missed%", "Uni missed%")
	for _, z := range []float64{0.5, 1.0, 1.5, 2.0, 2.5} {
		db, err := scenario.BuiltinDatabase("tpch", rows, z, 3)
		if err != nil {
			log.Fatal(err)
		}

		sg, err := core.NewSmallGroup(core.SmallGroupConfig{BaseRate: baseRate, Seed: 4}).Preprocess(db)
		if err != nil {
			log.Fatal(err)
		}
		// Matched sample space: uniform gets (1 + gamma*g) * r.
		uni, err := uniform.New(uniform.Config{Rate: baseRate * (1 + gamma*groupBys), Seed: 5}).Preprocess(db)
		if err != nil {
			log.Fatal(err)
		}

		gen, err := workload.NewGenerator(db, workload.Config{
			GroupingColumns: groupBys,
			Predicates:      1,
			Aggregate:       engine.Count,
			MassSelectivity: true,
			Seed:            6,
		})
		if err != nil {
			log.Fatal(err)
		}

		var sgAccs, uniAccs []metrics.Accuracy
		for _, q := range gen.Queries(queries) {
			exact, err := engine.ExecuteExact(db, q)
			if err != nil {
				log.Fatal(err)
			}
			if exact.NumGroups() == 0 {
				continue
			}
			for _, m := range []struct {
				p    core.Prepared
				accs *[]metrics.Accuracy
			}{{sg, &sgAccs}, {uni, &uniAccs}} {
				ans, err := m.p.Answer(q)
				if err != nil {
					log.Fatal(err)
				}
				acc, err := metrics.Compare(exact, ans.Result, 0)
				if err != nil {
					log.Fatal(err)
				}
				*m.accs = append(*m.accs, acc)
			}
		}
		sgM, uniM := metrics.Mean(sgAccs), metrics.Mean(uniAccs)
		marker := ""
		if sgM.RelErr < uniM.RelErr {
			marker = "  <- small group wins"
		}
		fmt.Printf("%-8.1f%-14.4f%-14.4f%-16.1f%-16.1f%s\n",
			z, sgM.RelErr, uniM.RelErr, sgM.PctGroups, uniM.PctGroups, marker)
	}
	fmt.Println("\npaper (Figure 6): uniform is slightly ahead on near-uniform data;")
	fmt.Println("small group sampling is clearly superior at moderate-to-high skew.")
}
