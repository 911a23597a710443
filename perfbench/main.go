// Command perfbench is the repository's benchmark: one process runs one
// named workload against the program's own packages and prints every
// metric with its unit and a correctness verdict. See README.md.
//
//	go run . --workload paper-llc --seed 1 --seconds 20 --trace 0   # timed: end-to-end metrics
//	go run . --workload paper-llc --seed 1 --seconds 20 --trace 1   # traced: per-layer metrics
//	go run . --list                                                  # workloads and metrics
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The line before it is the
// run's provenance. Diagnostics go to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// runner carries one invocation's settings and collects its results.
type runner struct {
	workload string
	seed     uint64
	window   time.Duration // how long each measured pass runs
	traced   bool
	workDir  string // scratch space inside the checkout, removed on exit
	log      io.Writer

	metrics   map[string]float64
	attempted int
	failed    int
	problems  []string
	facts     map[string]any // provenance details: digests, sample counts
}

// op records one attempted operation and whether it failed.
func (r *runner) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.problem("%v", err)
	}
}

// problem records a failed check. Any problem makes the run incorrect.
func (r *runner) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(r.problems) < 20 {
		r.problems = append(r.problems, msg)
	}
	fmt.Fprintf(r.log, "perfbench: FAIL: %s\n", msg)
}

func (r *runner) set(name string, v float64) { r.metrics[name] = v }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run (see --list)")
	seed := fs.Uint64("seed", 1, "input seed; 1 is the seed the golden digests are recorded at")
	seconds := fs.Float64("seconds", 10, "length of each measured pass in seconds")
	trace := fs.Int("trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics")
	list := fs.Bool("list", false, "print every workload and metric and exit")
	probe := fs.String("probe", "", "internal, for child processes: setup (set the workload up, print a ready line) or rss (run one sweep, print its peak RSS in MiB)")
	workDir := fs.String("work-dir", "", "internal: scratch directory of the parent run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		printListing(stdout)
		return 0
	}
	w, ok := findWorkload(*workload)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q; --list names them\n", *workload)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1\n")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: --seconds must be positive\n")
		return 2
	}
	if *probe != "" {
		var err error
		switch *probe {
		case "setup":
			err = setUpOnly(w.Name, *seed, *workDir, stdout)
		case "rss":
			err = sweepRSS(w.Name, *seed, stdout)
		default:
			err = fmt.Errorf("unknown probe %q", *probe)
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s probe: %v\n", *probe, err)
			return 1
		}
		return 0
	}

	dir, err := os.MkdirTemp(".", ".bench_work-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	abs, err := filepath.Abs(dir)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	r := &runner{
		workload: w.Name,
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		traced:   *trace == 1,
		workDir:  abs,
		log:      stderr,
		metrics:  map[string]float64{},
		facts:    map[string]any{},
	}
	if err := w.run(r); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.Name, err)
		return 1
	}
	if err := r.report(stdout, *seconds); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// report prints the human summary to the log, then the provenance line
// and the result line to stdout. It fails when a metric the catalogue
// requires for this mode is missing.
func (r *runner) report(stdout io.Writer, seconds float64) error {
	specs := endToEnd
	if r.traced {
		specs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]value{}
	var missing []string
	for _, m := range specs {
		v, ok := r.metrics[m.Name]
		if !ok {
			missing = append(missing, m.Name)
			continue
		}
		out[m.Name] = value{v, m.Unit}
		fmt.Fprintf(r.log, "  %-30s %14.6g %-6s (%s is better)\n", m.Name, v, m.Unit, m.Better)
	}
	if len(missing) > 0 {
		return fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	correct := len(r.problems) == 0 && r.attempted > 0
	fmt.Fprintf(r.log, "  correct=%v attempted=%d failed=%d\n", correct, r.attempted, r.failed)

	prov := provenance(r.workload, r.seed, seconds, r.traced)
	for k, v := range r.facts {
		prov[k] = v
	}
	if len(r.problems) > 0 {
		prov["problems"] = r.problems
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"provenance": prov}); err != nil {
		return err
	}
	return enc.Encode(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, r.attempted, r.failed, out})
}

// printListing prints every workload and metric with its unit and
// which direction is better.
func printListing(w io.Writer) {
	fmt.Fprintln(w, "workloads:")
	for _, wl := range workloads {
		fmt.Fprintf(w, "  %-14s %s\n", wl.Name, wl.Why)
	}
	fmt.Fprintln(w, "end_to_end:")
	for _, m := range endToEnd {
		fmt.Fprintf(w, "  %-30s %-6s %-6s bound %.2f\n", m.Name, m.Unit, m.Better, m.Bound)
	}
	fmt.Fprintln(w, "per_layer:")
	for _, m := range perLayer {
		fmt.Fprintf(w, "  %-30s %-6s %s\n", m.Name, m.Unit, m.Better)
	}
}
