package scenario

import (
	"bytes"
	"embed"
	"fmt"
	"math"
	"sort"
	"strings"

	"dynsample/internal/engine"
)

//go:embed specs/*.json
var builtinFS embed.FS

// BuiltinSpecs lists the names of the specs shipped with the binary, in
// sorted order. Each name can be passed to BuiltinSpec.
func BuiltinSpecs() []string {
	entries, err := builtinFS.ReadDir("specs")
	if err != nil {
		return nil
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, strings.TrimSuffix(e.Name(), ".json"))
	}
	sort.Strings(names)
	return names
}

// BuiltinSpec parses one of the embedded spec files by base name
// (e.g. "sales", "tpch"). The returned spec is freshly parsed on every
// call, so callers may mutate it (row overrides, reseeding).
func BuiltinSpec(name string) (*Spec, error) {
	data, err := builtinFS.ReadFile("specs/" + name + ".json")
	if err != nil {
		return nil, fmt.Errorf("unknown builtin spec %q (have %s)", name, strings.Join(BuiltinSpecs(), ", "))
	}
	s, err := ParseSpec(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("builtin spec %q: %w", name, err)
	}
	return s, nil
}

// BuiltinDatabase generates builtin spec name at a chosen size and skew:
// the tables are resized to factRows fact rows (see Spec.Resize), every zipf
// column and the padding take skew z, and seed replaces the spec's seed.
func BuiltinDatabase(name string, factRows int, z float64, seed int64) (*engine.Database, error) {
	if z < 0 || math.IsNaN(z) || math.IsInf(z, 0) {
		return nil, fmt.Errorf("scenario: zipf skew %g must be finite and >= 0", z)
	}
	s, err := BuiltinSpec(name)
	if err != nil {
		return nil, err
	}
	if err := s.Resize(factRows); err != nil {
		return nil, err
	}
	for i := range s.Tables {
		t := &s.Tables[i]
		for j := range t.Columns {
			if t.Columns[j].Dist.Kind == DistZipf {
				t.Columns[j].Dist.Z = z
			}
		}
		if t.Padding != nil {
			t.Padding.Z = z
		}
	}
	s.Seed = seed
	return Generate(s)
}

// Resize sets the fact table to factRows rows and scales every other table
// by the same factor, never below min(10, its declared size). This is the
// one row-override rule of the command-line tools and experiments.
func (s *Spec) Resize(factRows int) error {
	if factRows < 1 {
		return fmt.Errorf("scenario: fact rows %d must be >= 1", factRows)
	}
	ft := s.FactTable()
	if ft == nil {
		return fmt.Errorf("scenario: spec %q has no fact table to resize", s.Name)
	}
	specFact := int64(ft.Rows)
	for i := range s.Tables {
		t := &s.Tables[i]
		if t.Fact {
			t.Rows = factRows
		} else {
			t.Rows = max(int(int64(t.Rows)*int64(factRows)/specFact), min(10, t.Rows))
		}
	}
	return nil
}
