// Salesdashboard simulates the interactive decision-support scenario from
// the paper's introduction: an analyst explores a wide corporate sales star
// schema with a series of group-by queries, and the AQP middleware answers
// each one in milliseconds from pre-built samples instead of scanning the
// fact table. Every panel shows the approximate values with error bars and
// marks the groups that were answered exactly from small group tables.
package main

import (
	"fmt"
	"log"
	"sort"
	"strings"
	"time"

	"dynsample/internal/core"
	"dynsample/internal/engine"
	"dynsample/internal/scenario"
)

func main() {
	fmt.Println("building SALES star schema (6 dimensions, ~245 columns)...")
	db, err := scenario.BuiltinDatabase("sales", 100000, 1.2, 7)
	if err != nil {
		log.Fatal(err)
	}

	sys := core.NewSystem(db)
	start := time.Now()
	if err := sys.AddStrategy(core.NewSmallGroup(core.SmallGroupConfig{BaseRate: 0.01, Seed: 8})); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pre-processing: %v\n\n", time.Since(start).Round(time.Millisecond))

	panels := []struct {
		title string
		query *engine.Query
	}{
		{
			"Revenue by region",
			&engine.Query{
				GroupBy: []string{"store_region"},
				Aggs:    []engine.Aggregate{{Kind: engine.Sum, Col: "sale_amount"}},
			},
		},
		{
			"Orders by product line (returned items only)",
			&engine.Query{
				GroupBy: []string{"product_line"},
				Aggs:    []engine.Aggregate{{Kind: engine.Count}},
				Where:   []engine.Predicate{engine.NewIn("returned", engine.StringVal("Y"))},
			},
		},
		{
			"Units by customer segment and channel type",
			&engine.Query{
				GroupBy: []string{"customer_segment", "channel_type"},
				Aggs:    []engine.Aggregate{{Kind: engine.Sum, Col: "units"}},
			},
		},
		{
			"Margin by state (top quarter orders)",
			&engine.Query{
				GroupBy: []string{"store_state"},
				Aggs:    []engine.Aggregate{{Kind: engine.Sum, Col: "margin"}},
				Where:   []engine.Predicate{engine.NewIn("cal_quarter", engine.StringVal("cal_quarter_000"))},
			},
		},
	}

	for _, p := range panels {
		ans, err := sys.Approx("smallgroup", p.query)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("== %s  (answered in %v from %d sample rows)\n",
			p.title, ans.Elapsed.Round(time.Microsecond), ans.RowsRead)
		renderBars(ans)
		fmt.Println()
	}
}

// renderBars draws a tiny ASCII bar chart with confidence whiskers.
func renderBars(ans *core.Answer) {
	groups := ans.Result.Groups()
	sort.Slice(groups, func(i, j int) bool { return groups[i].Vals[0] > groups[j].Vals[0] })
	if len(groups) > 10 {
		groups = groups[:10]
	}
	max := groups[0].Vals[0]
	for _, g := range groups {
		key := engine.EncodeKey(g.Key)
		labels := make([]string, len(g.Key))
		for i, v := range g.Key {
			labels[i] = strings.Trim(v.String(), "'")
		}
		bar := int(40 * g.Vals[0] / max)
		tag := ""
		if g.Exact {
			tag = " *exact*"
		} else {
			iv := ans.Interval(key, 0)
			tag = fmt.Sprintf(" ±%.0f", iv.Width()/2)
		}
		fmt.Printf("  %-34s %12.0f |%s%s\n", strings.Join(labels, " / "), g.Vals[0], strings.Repeat("#", bar), tag)
	}
	if more := ans.Result.NumGroups() - len(groups); more > 0 {
		fmt.Printf("  ... and %d smaller groups\n", more)
	}
}
