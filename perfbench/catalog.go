package main

// The benchmark's vocabulary: its workloads and every metric it
// reports, with unit and direction. BENCHMARK.json at the repo root
// must list the same names (catalog_test.go checks it).

type workloadSpec struct {
	Name string
	Why  string
	run  func(r *runner) error
}

var workloads = []workloadSpec{
	{"paper-llc", "fig14 at the paper's 128 MB racetrack LLC with shortened traces: 48 MiB tag arrays, shift planning and trace generation dominate", runSweepWorkload},
	{"scaled-sweep", "all 25 experiments at the scaled hierarchy: small tag arrays, SRAM/STT jobs without shift planning, analytic experiments, 396 jobs of which 108 distinct", runSweepWorkload},
	{"serve-mixed", "in-process hifi-serve, 2 closed-loop clients, 1 cold to 4 warm submissions: admission, engine cache reads and writes, job index WAL", runServeMixed},
}

type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: allowed worsening as a share of the parent's median
}

// endToEnd metrics are printed by a timed run (--trace 0) of every
// workload.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"jobs_per_s", "1/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"cold_p50_ms", "ms", "lower", 0.25},
	{"cold_p90_ms", "ms", "lower", 0.25},
	{"warm_p50_ms", "ms", "lower", 0.25},
	{"warm_p90_ms", "ms", "lower", 0.25},
}

// perLayer metrics are printed by a traced run (--trace 1) of every
// workload. Layers a workload does not exercise report 0.
var perLayer = []metricSpec{
	{"trace.cpu_share", "frac", "lower", 0},
	{"trace.ns_per_access", "ns", "lower", 0},
	{"trace.distinct_stream_frac", "frac", "lower", 0},
	{"cache.cpu_share", "frac", "lower", 0},
	{"cache.l3_new_ms", "ms", "lower", 0},
	{"cache.l3_ns_per_access", "ns", "lower", 0},
	{"cache.l3_accesses", "count", "lower", 0},
	{"cache.l3_miss_rate", "frac", "lower", 0},
	{"shiftctrl.cpu_share", "frac", "lower", 0},
	{"shiftctrl.plan_ns", "ns", "lower", 0},
	{"shiftctrl.plan_allocs", "count", "lower", 0},
	{"shiftctrl.shift_ops", "count", "lower", 0},
	{"shiftctrl.steps_per_op", "steps", "lower", 0},
	{"shiftctrl.calibration_ms", "ms", "lower", 0},
	{"memsim.cpu_share", "frac", "lower", 0},
	{"memsim.ns_per_access", "ns", "lower", 0},
	{"memsim.setup_ms", "ms", "lower", 0},
	{"memsim.alloc_mb_per_job", "MB", "lower", 0},
	{"engine.cpu_share", "frac", "lower", 0},
	{"engine.jobs", "count", "lower", 0},
	{"engine.executed", "count", "lower", 0},
	{"engine.distinct_frac", "frac", "lower", 0},
	{"engine.cache_hit_frac", "frac", "higher", 0},
	{"engine.overhead_ms_per_job", "ms", "lower", 0},
	{"engine.cache_get_us", "us", "lower", 0},
	{"engine.cache_put_us", "us", "lower", 0},
	{"experiments.cpu_share", "frac", "lower", 0},
	{"experiments.analytic_s", "s", "lower", 0},
	{"serve.cpu_share", "frac", "lower", 0},
	{"serve.submit_ms", "ms", "lower", 0},
	{"serve.queue_wait_ms", "ms", "lower", 0},
	{"serve.run_ms", "ms", "lower", 0},
	{"serve.tables_ms", "ms", "lower", 0},
	{"serve.index_records", "count", "lower", 0},
	{"serve.http_errors", "count", "lower", 0},
	{"telemetry.cpu_share", "frac", "lower", 0},
	{"harness.cpu_share", "frac", "lower", 0},
	{"runtime.cpu_share", "frac", "lower", 0},
	{"runtime.gc_cpu_share", "frac", "lower", 0},
	{"runtime.num_gc", "count", "lower", 0},
	{"tracing.overhead_frac", "frac", "lower", 0},
	{"profile.samples", "count", "lower", 0},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}
