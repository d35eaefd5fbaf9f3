// Command perfbench is the repository's end-to-end benchmark: it
// generates seeded XMark inputs, drives the public xrel API from one
// process, checks every answer, and prints one JSON result line.
//
//	perfbench --workload xmark-hot --seed 1 --seconds 30 --trace 0
//	perfbench compare A.jsonl B.jsonl
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 a separate traced run reports the per-layer metrics and
// writes its spans under the work directory. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func realMain(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "xmark-hot, xmark-adhoc or xmark-ingest")
	seed := fs.Int64("seed", 1, "input seed: documents and query streams derive from it")
	seconds := fs.Float64("seconds", 30, "length of the measured window")
	trace := fs.Int("trace", 0, "1 runs the traced split and reports per-layer metrics")
	workDir := fs.String("work-dir", filepath.Join(".bench_build", "work"), "directory for stores and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	known := false
	for _, w := range workloads {
		known = known || w == *workload
	}
	if !known || *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload one of %v, --seconds > 0 and --trace 0 or 1\n", workloads)
		return 2
	}
	cfg := defaultConfig()
	cfg.workload, cfg.seed, cfg.trace, cfg.workDir = *workload, *seed, *trace == 1, *workDir
	cfg.window = time.Duration(*seconds * float64(time.Second))
	res, err := measure(cfg, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s seed %d: %v\n", cfg.workload, cfg.seed, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// measure executes one run and assembles its result line, writing a
// human-readable summary to w.
func measure(cfg config, w io.Writer) (*result, error) {
	r, err := execute(cfg)
	if err != nil {
		return nil, err
	}
	attempted, failed := r.attempted.Load(), r.failed.Load()
	fmt.Fprintf(w, "%s seed %d trace %v: %d queries in %.2fs (latency samples %d), %d loads, error_rate %.4g (%d of %d operations)\n",
		cfg.workload, cfg.seed, cfg.trace, len(r.queryLat), r.windowS, len(r.queryLat), len(r.loadMs),
		ratio(float64(failed), float64(attempted)), failed, attempted)
	for _, f := range r.failures {
		fmt.Fprintf(w, "  failed: %s\n", f)
	}
	specs, shown, values := endToEnd, slices.Concat(endToEnd, diskLatency), r.endToEndValues()
	if cfg.trace {
		specs, values = perLayer(), r.perLayerValues()
		shown = specs
	}
	metrics, err := pick(specs, values)
	if err != nil {
		return nil, err
	}
	for _, m := range shown {
		fmt.Fprintf(w, "  %-40s %14.4f %s\n", m.name, values[m.name], m.unit)
	}
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}, nil
}
