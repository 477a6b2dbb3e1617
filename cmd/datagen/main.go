// Command datagen emits synthetic experiment databases as CSV for
// inspection or use by external tools. Databases are described by scenario
// spec files (see internal/scenario); the two schemas used throughout the
// experiments ship as builtin specs.
//
// Usage:
//
//	datagen -db tpch -out /tmp/tpch              # builtin spec, one CSV per table
//	datagen -db sales -rows 20000 -out /tmp/sales
//	datagen -spec scenarios/cases/geo_correlated/spec.json -out /tmp/geo
//	datagen -list                                # show builtin spec names
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"dynsample/internal/engine"
	"dynsample/internal/scenario"
)

func main() {
	var (
		db       = flag.String("db", "", "builtin database spec to generate (see -list)")
		specPath = flag.String("spec", "", "path to a scenario spec file (overrides -db)")
		rows     = flag.Int("rows", 0, "fact table row-count override; other tables scale in proportion")
		seed     = flag.Int64("seed", 0, "random seed override (0 keeps the spec's seed)")
		out      = flag.String("out", ".", "output directory")
		list     = flag.Bool("list", false, "list builtin spec names and exit")
	)
	flag.Parse()

	if *list {
		for _, name := range scenario.BuiltinSpecs() {
			fmt.Println(name)
		}
		return
	}

	spec, err := loadSpec(*specPath, *db)
	if err != nil {
		fail(err)
	}
	if *rows > 0 {
		if err := spec.Resize(*rows); err != nil {
			fail(err)
		}
	}
	if *seed != 0 {
		spec.Seed = *seed
	}

	d, err := scenario.Generate(spec)
	if err != nil {
		fail(err)
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fail(err)
	}
	write := func(t *engine.Table) error {
		path := filepath.Join(*out, t.Name+".csv")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := engine.WriteCSV(t, f); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d rows, %d columns)\n", path, t.NumRows(), t.NumCols())
		return nil
	}

	if err := write(d.Fact); err != nil {
		fail(err)
	}
	for _, dim := range d.Dims {
		if err := write(dim.Table); err != nil {
			fail(err)
		}
	}
}

func loadSpec(specPath, db string) (*scenario.Spec, error) {
	switch {
	case specPath != "":
		return scenario.LoadSpec(specPath)
	case db != "":
		return scenario.BuiltinSpec(db)
	default:
		return nil, fmt.Errorf("one of -db or -spec is required (builtins: %v)", scenario.BuiltinSpecs())
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "datagen:", err)
	os.Exit(1)
}
