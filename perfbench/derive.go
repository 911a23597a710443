package main

// Per-layer metrics derived from what a traced pass recorded: the CPU
// profile, the program's own spans, and its metric registry.

import (
	"fmt"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"

	"racetrack/hifi/internal/telemetry"
)

// profileShares sets each layer's cpu_share from a CPU profile and
// checks that every sample landed in exactly one named layer.
func (r *runner) profileShares(prof []byte) error {
	samples, err := parseProfile(prof)
	if err != nil {
		return err
	}
	ru := rollup(samples)
	if ru.Total == 0 {
		return fmt.Errorf("cpu profile has no samples")
	}
	var sum int64
	for _, l := range layerOrder {
		r.set(l+".cpu_share", ru.share(l))
		sum += ru.ByLayer[l]
	}
	if sum != ru.Total {
		r.problem("profile: %d of %d samples not in a named layer", ru.Total-sum, ru.Total)
	}
	r.set("profile.samples", float64(ru.Total))
	return nil
}

// spanTree indexes a span export by id and parent.
type spanTree struct {
	byID     map[uint64]telemetry.SpanRecord
	children map[uint64][]telemetry.SpanRecord
}

func newSpanTree(e telemetry.SpanExport) spanTree {
	t := spanTree{byID: map[uint64]telemetry.SpanRecord{}, children: map[uint64][]telemetry.SpanRecord{}}
	for _, s := range e.Spans {
		t.byID[s.ID] = s
		t.children[s.Parent] = append(t.children[s.Parent], s)
	}
	return t
}

// root returns the outermost ancestor of a span.
func (t spanTree) root(s telemetry.SpanRecord) telemetry.SpanRecord {
	for s.Parent != 0 {
		p, ok := t.byID[s.Parent]
		if !ok {
			break
		}
		s = p
	}
	return s
}

func attr(s telemetry.SpanRecord, key string) string {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// spanMetrics derives the memsim, calibration, engine-overhead and
// stream-sharing metrics from the spans of one traced pass. Each sweep
// (or re-rendered spec) is one root span of the harness; distinct
// streams and jobs are counted within each root.
func (r *runner) spanMetrics(e telemetry.SpanExport) {
	t := newSpanTree(e)
	if e.Dropped > 0 {
		r.problem("span collector dropped %d spans", e.Dropped)
	}
	var simNS, accesses, setupNS, calNS, overheadNS float64
	var sims, setups, cals, jobsWithSim, jobs int
	hashes := map[string]bool{}  // root id + job hash
	streams := map[string]bool{} // root id + workload
	for _, s := range e.Spans {
		switch {
		case strings.HasPrefix(s.Name, "memsim:"):
			sims++
			simNS += float64(s.DurNS)
			streams[fmt.Sprint(t.root(s).ID)+"/"+s.Name] = true
			for _, c := range t.children[s.ID] {
				switch c.Name {
				case "setup":
					setups++
					setupNS += float64(c.DurNS)
					for _, cc := range t.children[c.ID] {
						if cc.Name == "errmodel-calibration" {
							cals++
							calNS += float64(cc.DurNS)
						}
					}
				case "measure", "warmup":
					n, _ := strconv.ParseFloat(attr(c, "accesses"), 64)
					accesses += n
				}
			}
		case strings.HasPrefix(s.Name, "job:"):
			jobs++
			hashes[fmt.Sprint(t.root(s).ID)+"/"+attr(s, "hash")] = true
			inner := int64(0)
			found := false
			for _, c := range t.children[s.ID] {
				if strings.HasPrefix(c.Name, "memsim:") {
					inner += c.DurNS
					found = true
				}
			}
			if found {
				jobsWithSim++
				overheadNS += float64(s.DurNS - inner)
			}
		}
	}
	r.set("memsim.ns_per_access", ratio(simNS, accesses))
	r.set("memsim.setup_ms", ratio(setupNS, float64(setups))/1e6)
	r.set("shiftctrl.calibration_ms", ratio(calNS, float64(cals))/1e6)
	r.set("engine.overhead_ms_per_job", ratio(overheadNS, float64(jobsWithSim))/1e6)
	r.set("engine.distinct_frac", ratio(float64(len(hashes)), float64(jobs)))
	r.set("trace.distinct_stream_frac", ratio(float64(len(streams)), float64(sims)))
}

// registryMetrics derives the simulated-hierarchy counts from the
// metric registry of a traced pass, per operation.
func (r *runner) registryMetrics(s telemetry.Snapshot, ops float64) {
	get := func(name string) float64 { v, _ := s.Lookup(name); return v }
	hits := get(telemetry.Label(telemetry.MetricCacheHits, "level", "l3"))
	misses := get(telemetry.Label(telemetry.MetricCacheMisses, "level", "l3"))
	shiftOps := get(telemetry.MetricShiftOps)
	r.set("cache.l3_accesses", (hits+misses)/ops)
	r.set("cache.l3_miss_rate", ratio(misses, hits+misses))
	r.set("shiftctrl.shift_ops", shiftOps/ops)
	r.set("shiftctrl.steps_per_op", ratio(get(telemetry.MetricShiftSteps), shiftOps))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuSeconds returns the process's GC CPU time and busy (non-idle) CPU
// time as the runtime estimates them.
func cpuSeconds() (gc, busy float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	var v [3]float64
	for i := range s {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			v[i] = s[i].Value.Float64()
		}
	}
	return v[0], v[1] - v[2]
}

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
