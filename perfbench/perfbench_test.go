package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"dynsample/internal/server"
)

func TestPercentileLeavesTenBeyondP99(t *testing.T) {
	for _, n := range []int{1000, 1001, 1500, 4321} {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64((i * 7919) % n) // distinct, shuffled
		}
		sort.Float64s(vals)
		if got := beyond(vals, 0.99); got < 10 {
			t.Errorf("n=%d: %d samples beyond p99, want >= 10", n, got)
		}
	}
	// Nearest rank: the smallest value with at least p·n values at or below.
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for p, want := range map[float64]float64{0.5: 5, 0.9: 9, 0.91: 10, 0.99: 10, 0.1: 1} {
		if got := percentile(vals, p); got != want {
			t.Errorf("percentile(%v) = %v, want %v", p, got, want)
		}
	}
	if got := beyond(vals, 0.99); got != 0 {
		t.Errorf("10 samples: %d beyond p99, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks the
// output against.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func tinyRun(t *testing.T, workload string, seed int64, trace bool) *result {
	t.Helper()
	res, err := run(options{Workload: workload, Seed: seed, Seconds: 0.5, Trace: trace, Tiny: true, OutDir: t.TempDir()}, io.Discard)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", workload, trace, err)
	}
	return res
}

// TestSmokeEveryWorkload runs every workload of BENCHMARK.json at tiny
// scale, untraced and traced, and checks that the run is correct and
// reports exactly the metrics BENCHMARK.json declares, with their units.
func TestSmokeEveryWorkload(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark defines %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			res := tinyRun(t, w.Name, 3, trace)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d/%d checks=%+v", w.Name, trace, res.Correct, res.Failed, res.Attempted, res.Report.Checks)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: %s unit %q, BENCHMARK.json says %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%v: %s = %v", w.Name, trace, m.Name, got.Value)
				case !trace && got.Value == 0:
					t.Errorf("%s: end-to-end metric %s is 0", w.Name, m.Name)
				}
			}
			if _, err := json.Marshal(res); err != nil {
				t.Errorf("%s trace=%v: result does not encode: %v", w.Name, trace, err)
			}
		}
	}
}

// TestSameSeedSameDigests checks the determinism contract of the report:
// the same seed gives the same inputs, answers and accuracy figures.
func TestSameSeedSameDigests(t *testing.T) {
	a, b := tinyRun(t, "dashboard", 5, false), tinyRun(t, "dashboard", 5, false)
	if a.Report.InputsSHA256 != b.Report.InputsSHA256 || a.Report.AnswersSHA256 != b.Report.AnswersSHA256 {
		t.Errorf("digests differ: %s/%s vs %s/%s", a.Report.InputsSHA256, a.Report.AnswersSHA256, b.Report.InputsSHA256, b.Report.AnswersSHA256)
	}
	for _, m := range []string{"rel_err", "sample_bytes_ratio"} {
		if a.Metrics[m] != b.Metrics[m] {
			t.Errorf("%s differs: %v vs %v", m, a.Metrics[m], b.Metrics[m])
		}
	}
	for _, m := range []string{"pct_groups_missed", "bound_violation_rate"} {
		if a.Report.Figures[m] != b.Report.Figures[m] {
			t.Errorf("%s differs: %v vs %v", m, a.Report.Figures[m], b.Report.Figures[m])
		}
	}
	c := tinyRun(t, "dashboard", 6, false)
	if c.Report.InputsSHA256 == a.Report.InputsSHA256 {
		t.Errorf("seeds 5 and 6 gave the same inputs")
	}
}

// TestAnswerCheckFiresOnPerturbation perturbs a served answer by one ulp in
// each compared field and checks that the bit-identity check and the
// response digest both notice.
func TestAnswerCheckFiresOnPerturbation(t *testing.T) {
	w := workloads["dashboard"].shrink()
	d, err := deploy(w, 7, filepath.Join(t.TempDir(), "state"))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	qs, err := genQueries(w, d.systems(), 7)
	if err != nil {
		t.Fatal(err)
	}
	q := qs[0]
	body, err := postOK(d.node.URL+"/v1/query", q.Body)
	if err != nil {
		t.Fatal(err)
	}
	want, err := inProcess(d.sys, q)
	if err != nil {
		t.Fatal(err)
	}
	decode := func(b []byte) *server.QueryResponse {
		var r server.QueryResponse
		if err := json.Unmarshal(b, &r); err != nil {
			t.Fatal(err)
		}
		return &r
	}
	if err := sameAnswer(want, decode(body)); err != nil {
		t.Fatalf("unperturbed answer rejected: %v", err)
	}
	if len(want.Groups) == 0 {
		t.Fatal("query has no groups")
	}
	up := func(x float64) float64 { return math.Nextafter(x, math.Inf(1)) }
	perturb := map[string]func(r *server.QueryResponse){
		"value":    func(r *server.QueryResponse) { r.Groups[0].Values[0] = up(r.Groups[0].Values[0]) },
		"interval": func(r *server.QueryResponse) { r.Groups[0].CI[0][1] = up(r.Groups[0].CI[0][1]) },
		"exact":    func(r *server.QueryResponse) { r.Groups[0].Exact = !r.Groups[0].Exact },
		"key":      func(r *server.QueryResponse) { r.Groups[0].Key[0] += "x" },
		"dropped":  func(r *server.QueryResponse) { r.Groups = r.Groups[1:] },
		"rows":     func(r *server.QueryResponse) { r.RowsRead++ },
	}
	base, err := json.Marshal(decode(body))
	if err != nil {
		t.Fatal(err)
	}
	for name, f := range perturb {
		got := decode(body)
		f(got)
		if err := sameAnswer(want, got); err == nil {
			t.Errorf("%s perturbation not detected", name)
		}
		b, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if responseDigest(b) == responseDigest(base) {
			t.Errorf("%s perturbation leaves the response digest unchanged", name)
		}
	}
}

func TestResponseDigestIgnoresElapsed(t *testing.T) {
	a := []byte(`{"groups":[],"elapsedMicros":12,"generation":0}`)
	b := []byte(`{"groups":[],"elapsedMicros":987654,"generation":0}`)
	c := []byte(`{"groups":[],"elapsedMicros":12,"generation":1}`)
	if responseDigest(a) != responseDigest(b) {
		t.Error("digest depends on elapsedMicros")
	}
	if responseDigest(a) == responseDigest(c) {
		t.Error("digest ignores the generation")
	}
}

func TestRelErr(t *testing.T) {
	g := func(key string, v float64) server.GroupJSON {
		return server.GroupJSON{Key: []string{key}, Values: []float64{v}}
	}
	exact := []server.GroupJSON{g("a", 100), g("b", 50), g("c", 10)}
	approx := []server.GroupJSON{g("a", 110), g("b", 50)}
	rel, groups, missed := relErr(exact, approx)
	// (0.1 + 0 + 1 for the missing group) / 3.
	if math.Abs(rel-1.1/3) > 1e-12 || groups != 3 || missed != 1 {
		t.Errorf("relErr = %v, %d, %d", rel, groups, missed)
	}
}
