// Command perfbench is the repository benchmark. It drives the serving
// stack (internal/serve and the layers beneath it) through its public
// functions, checks every answer, and prints one JSON result line:
//
//	perfbench --workload serve_steady --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 is a separate traced
// run that reports the per-layer metrics. Workloads, metric definitions and
// the checks are described in README.md next to this file. run.sh builds and
// runs it from the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report accumulates one run's metrics, their sample counts, and free-form
// report lines printed before the result.
type report struct {
	metrics map[string]metric
	samples map[string]int
	lines   []string
}

func newReport() *report {
	return &report{metrics: make(map[string]metric), samples: make(map[string]int)}
}

// set records a metric measured over n samples (n is reported, not emitted
// in the JSON result).
func (r *report) set(name, unit string, v float64, n int) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.samples[name] = n
}

func (r *report) linef(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// runConfig is the parsed command line.
type runConfig struct {
	workload string
	seed     int64
	budget   time.Duration
	traced   bool
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: serve_steady, serve_durable or serve_dup")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Int("seconds", 20, "measurement budget in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	cfg := runConfig{workload: *name, seed: *seed, budget: time.Duration(*seconds) * time.Second, traced: *trace == 1}

	// The watchdog logs every below-ρ admission at ERROR. Those records are
	// still formatted (their cost stays in the measurement) but discarded,
	// so the report stays readable.
	slog.SetDefault(slog.New(slog.NewTextHandler(io.Discard, nil)))

	ck := &checker{}
	rep := newReport()
	sh, ok := shapes[cfg.workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", cfg.workload)
		return 2
	}
	if err := runServe(cfg, sh, ck, rep); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}

	host, _ := json.Marshal(fingerprint())
	fmt.Fprintf(stdout, "host %s\n", host)
	for _, l := range rep.lines {
		fmt.Fprintln(stdout, l)
	}
	names := make([]string, 0, len(rep.metrics))
	for n := range rep.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.metrics[n]
		fmt.Fprintf(stdout, "metric %-34s %14.6g %-6s n=%d\n", n, m.Value, m.Unit, rep.samples[n])
	}
	for _, msg := range ck.messages {
		fmt.Fprintf(stdout, "check failed: %s\n", msg)
	}
	res := result{
		Correct:   ck.failures == 0,
		Attempted: ck.attempted,
		Failed:    ck.failed,
		Metrics:   rep.metrics,
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encode result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
