// Command perfbench is the repository's end-to-end benchmark. One run builds
// a workload's data and samples, serves them with the real server and
// cluster handlers on loopback, drives seeded closed-loop traffic, checks
// every answer, and prints its metrics. The last line of standard output is
// one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
// with -trace 1 they are the per-layer metrics of a separate traced run.
// README.md in this directory describes the workloads and metrics.
//
// Run it from the repository root through perfbench/run.sh, which builds
// this module against the checkout:
//
//	bash perfbench/run.sh --workload dashboard --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
)

// options are the command-line settings of one run.
type options struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	// OutDir receives the span file, the full report and the run's
	// temporary WAL and catalog directories; .bench_out from the command
	// line.
	OutDir string
	// Tiny shrinks every size for the smoke tests.
	Tiny bool
}

func parseFlags(args []string) (options, error) {
	o := options{OutDir: ".bench_out"}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.Workload, "workload", "", "workload name: "+fmt.Sprint(workloadNames()))
	fs.Int64Var(&o.Seed, "seed", 1, "workload seed; the same seed gives the same data, queries and ingest batches")
	fs.Float64Var(&o.Seconds, "seconds", 10, "seconds of timed traffic")
	trace := fs.Int("trace", 0, "1 runs the traced run and prints per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if _, ok := workloads[o.Workload]; !ok {
		return o, fmt.Errorf("unknown workload %q (have %v)", o.Workload, workloadNames())
	}
	if o.Seconds <= 0 {
		return o, fmt.Errorf("-seconds must be > 0")
	}
	if *trace != 0 && *trace != 1 {
		return o, fmt.Errorf("-trace must be 0 or 1")
	}
	o.Trace = *trace == 1
	return o, nil
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one run measured.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// Report carries what the final line has no room for: the machine
	// fingerprint, digests, correctness-check outcomes and the accuracy
	// figures that may legitimately be zero.
	Report report `json:"-"`
}

type report struct {
	Workload      string         `json:"workload"`
	Seed          int64          `json:"seed"`
	Trace         bool           `json:"trace"`
	Machine       fingerprint    `json:"machine"`
	InputsSHA256  string         `json:"inputs_sha256"`
	AnswersSHA256 string         `json:"answers_sha256"`
	Checks        []checkResult  `json:"checks"`
	Samples       map[string]int `json:"samples"`
	// Figures are measured like the metrics but not gated: tail latencies,
	// whose run-to-run spread on a shared 2-vCPU box exceeds any bound the
	// benchmark may set, and figures that can legitimately be zero.
	Figures  map[string]metric `json:"figures"`
	SpanFile string            `json:"span_file,omitempty"`
}

type checkResult struct {
	Name   string `json:"name"`
	Pass   bool   `json:"pass"`
	Detail string `json:"detail,omitempty"`
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(o, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := emit(os.Stdout, o, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// emit prints one line per metric and per report figure, the full report
// as one JSON line, writes the report file, and prints the final result
// line.
func emit(w io.Writer, o options, res *result) error {
	printAll(w, res.Metrics, "")
	printAll(w, res.Report.Figures, "  (report)")
	rep, err := json.Marshal(res.Report)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "report %s\n", rep)
	name := fmt.Sprintf("result-%s-seed%d-trace%d.json", o.Workload, o.Seed, boolInt(o.Trace))
	full, err := json.MarshalIndent(struct {
		*result
		Report report `json:"report"`
	}{res, res.Report}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(o.OutDir, name), append(full, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing report: %w", err)
	}
	last, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", last)
	return err
}

func printAll(w io.Writer, ms map[string]metric, note string) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-28s %s %s%s\n", n, strconv.FormatFloat(ms[n].Value, 'g', -1, 64), ms[n].Unit, note)
	}
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
