package main

// Layer probes: each times one layer from outside, through its public
// API, on the workload's own inputs (its roster, seed, trace length and
// hierarchy). They run after the traced pass, with the profile off.

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"racetrack/hifi/internal/cache"
	"racetrack/hifi/internal/energy"
	"racetrack/hifi/internal/engine"
	"racetrack/hifi/internal/errmodel"
	"racetrack/hifi/internal/experiments"
	"racetrack/hifi/internal/mttf"
	"racetrack/hifi/internal/shiftctrl"
	"racetrack/hifi/internal/telemetry"
	"racetrack/hifi/internal/telemetry/events"
	"racetrack/hifi/internal/trace"
)

// simExperiments are the experiments that drive memsim; the rest are
// analytic (closed-form or Monte-Carlo over the physics model).
var simExperiments = map[string]bool{"fig10": true, "fig11": true, "fig14": true,
	"fig16": true, "fig17": true, "fig18": true, "abl-promo": true}

// The simulated hierarchy of memsim's Table 4 system and of the
// experiments' scaled mode (internal/experiments/simruns.go), which the
// probes rebuild from the same public constructors.
const (
	cores         = 4
	l1Ways        = 2
	l2Ways        = 4
	l3Ways        = 16
	l3Banks       = 4
	scaledL1      = 2 << 10
	scaledL2      = 8 << 10
	scaledL3      = 1 << 20
	scaledWSShift = 7
	scaledWSMin   = 12 << 10
	clockHz       = 2e9
)

type hierarchy struct{ l1, l2, l3 int64 }

func hierarchyOf(scaled bool) hierarchy {
	if scaled {
		return hierarchy{scaledL1, scaledL2, scaledL3}
	}
	return hierarchy{energy.L1().CapacityB / 2, energy.L2().CapacityB, energy.L3(energy.Racetrack).CapacityB}
}

func rosterOf(scaled bool) []trace.Workload {
	ws := trace.PARSEC()
	if scaled {
		for i := range ws {
			ws[i].WorkingSetB = max(ws[i].WorkingSetB>>scaledWSShift, scaledWSMin)
		}
	}
	return ws
}

var sinkAccess trace.Access

// probeLayers runs every layer probe for the sweep d. servedDigest is
// the digest the served tables of d.spec must have ("" when the
// workload is serve-mixed, whose serve metrics come from its own mix).
func (r *runner) probeLayers(d sweepDef, servedDigest string) error {
	scaled, seed, n := d.opts.Scaled, d.opts.Seed, d.opts.AccessesPerCore
	roster := rosterOf(scaled)
	h := hierarchyOf(scaled)

	var genNS []float64
	for rep := 0; rep < 3; rep++ {
		start := time.Now()
		for _, w := range roster {
			for c := 0; c < cores; c++ {
				g := trace.NewGenerator(w, c, seed)
				for i := 0; i < n; i++ {
					sinkAccess = g.Next()
				}
			}
		}
		genNS = append(genNS, float64(time.Since(start).Nanoseconds())/float64(len(roster)*cores*n))
	}
	r.set("trace.ns_per_access", median(genNS))

	var newMS []float64
	var replayNS, refs float64
	var dists, intervals []int
	for _, w := range roster {
		stream := l3Stream(w, seed, n, h)
		t0 := time.Now()
		l3 := cache.New(h.l3, l3Ways, trace.LineBytes)
		newMS = append(newMS, float64(time.Since(t0).Nanoseconds())/1e6)
		slots := make([][2]int32, len(stream))
		t0 = time.Now()
		for i, ref := range stream {
			res := l3.Access(ref.addr, ref.write)
			slots[i] = [2]int32{int32(res.Set), int32(res.Way)}
		}
		replayNS += float64(time.Since(t0).Nanoseconds())
		refs += float64(len(stream))
		// Shift distances the racetrack array would need for the same
		// stream, with the time since the previous shift counted in L3
		// accesses at the racetrack read latency.
		rtm := cache.NewRTMArray(cache.DefaultRTM(), h.l3)
		last := 0
		for i, s := range slots {
			g, dist, dir := rtm.AccessDistance(int(s[0]), int(s[1]), l3Ways)
			rtm.MoveHead(g, dist, dir, 1)
			if dist > 0 {
				dists = append(dists, dist)
				intervals = append(intervals, (i-last)*energy.L3(energy.Racetrack).ReadCycles)
				last = i
			}
		}
	}
	r.set("cache.l3_new_ms", median(newMS))
	r.set("cache.l3_ns_per_access", ratio(replayNS, refs))
	planNS, planAllocs := probePlans(dists, intervals)
	r.set("shiftctrl.plan_ns", planNS)
	r.set("shiftctrl.plan_allocs", planAllocs)

	start := time.Now()
	for _, k := range experiments.Order() {
		if simExperiments[k] {
			continue
		}
		if _, err := experiments.Run(k, d.opts); err != nil {
			return fmt.Errorf("analytic probe: %w", err)
		}
	}
	r.set("experiments.analytic_s", time.Since(start).Seconds())

	cacheDir := filepath.Join(r.workDir, "cache")
	if servedDigest != "" {
		cacheDir = filepath.Join(r.workDir, "probe-cache")
		if err := r.probeServe(d, servedDigest, cacheDir); err != nil {
			return err
		}
	}
	return r.probeEngineCache(cacheDir)
}

type l3Ref struct {
	addr  uint64
	write bool
}

// l3Stream records the references one workload's cores send past their
// L1s and L2s, with memsim's write-back rules, cores taking turns.
func l3Stream(w trace.Workload, seed uint64, n int, h hierarchy) []l3Ref {
	gens := make([]*trace.Generator, cores)
	l1 := make([]*cache.Cache, cores)
	l2 := make([]*cache.Cache, (cores+1)/2)
	for c := range gens {
		gens[c] = trace.NewGenerator(w, c, seed)
		l1[c] = cache.New(h.l1, l1Ways, trace.LineBytes)
	}
	for i := range l2 {
		l2[i] = cache.New(h.l2, l2Ways, trace.LineBytes)
	}
	var out []l3Ref
	for i := 0; i < n; i++ {
		for c := range gens {
			a := gens[c].Next()
			res := l1[c].Access(a.Addr, a.Write)
			if res.Hit {
				continue
			}
			if res.Writeback {
				l2[c/2].Access(res.EvictedAddr, true)
			}
			res = l2[c/2].Access(a.Addr, a.Write)
			if res.Hit {
				continue
			}
			if res.Writeback {
				out = append(out, l3Ref{res.EvictedAddr, true})
			}
			out = append(out, l3Ref{a.Addr, a.Write})
		}
	}
	return out
}

var sinkSeq []int

// probePlans times the shift planners memsim calls per racetrack access
// (the adaptive table lookup and the worst-case plan) on the recorded
// distances, and counts their allocations per call.
func probePlans(dists, intervals []int) (nsPerCall, allocsPerCall float64) {
	if len(dists) == 0 {
		return 0, 0
	}
	geom := cache.DefaultRTM()
	target := 10 * mttf.SecondsPerYear
	maxDist := geom.SegLen - 1
	planner := shiftctrl.NewPlanner(errmodel.Model{}, shiftctrl.DefaultTiming(), maxDist, maxDist)
	adapter := shiftctrl.NewAdapter(planner, clockHz, target, geom.StripesPerGroup)
	maxIntensity := l3Banks * clockHz / float64(energy.L3(energy.Racetrack).ReadCycles)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i, d := range dists {
		sinkSeq = adapter.SequenceFor(d, uint64(intervals[i]))
		sinkSeq = shiftctrl.WorstCaseSequence(planner, d, maxIntensity, target, geom.StripesPerGroup)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	calls := float64(2 * len(dists))
	return float64(elapsed.Nanoseconds()) / calls, float64(after.Mallocs-before.Mallocs) / calls
}

// probeEngineCache times engine.Cache reads of the result objects the
// workload's jobs stored under dir, and writes of the same payloads
// into an empty cache.
func (r *runner) probeEngineCache(dir string) error {
	src, err := engine.OpenCache(dir, engine.CodeVersion())
	if err != nil {
		return err
	}
	var hashes []string
	err = filepath.WalkDir(filepath.Join(dir, "objects"), func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() && e.Name() == "quarantine" {
			return filepath.SkipDir
		}
		if name := e.Name(); !e.IsDir() && strings.HasSuffix(name, ".json") && len(hashes) < 256 {
			hashes = append(hashes, strings.TrimSuffix(name, ".json"))
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("engine cache probe: %w", err)
	}
	if len(hashes) == 0 {
		return fmt.Errorf("engine cache probe: no result objects under %s", dir)
	}
	payloads := make([][]byte, len(hashes))
	start := time.Now()
	for i, h := range hashes {
		if payloads[i], err = src.Get(h); err != nil {
			return fmt.Errorf("engine cache probe: %w", err)
		}
	}
	r.set("engine.cache_get_us", float64(time.Since(start).Nanoseconds())/1e3/float64(len(hashes)))
	dstDir := filepath.Join(r.workDir, "put-cache")
	defer os.RemoveAll(dstDir)
	dst, err := engine.OpenCache(dstDir, engine.CodeVersion())
	if err != nil {
		return err
	}
	start = time.Now()
	for i, h := range hashes {
		if err := dst.Put(h, payloads[i]); err != nil {
			return fmt.Errorf("engine cache probe: %w", err)
		}
	}
	r.set("engine.cache_put_us", float64(time.Since(start).Nanoseconds())/1e3/float64(len(hashes)))
	return nil
}

// probeServe submits the sweep's own spec to an in-process daemon, cold
// and then warm, and times the daemon's phases. Both responses must
// carry the sweep's tables.
func (r *runner) probeServe(d sweepDef, want, cacheDir string) error {
	clock := &serveClock{}
	bus := events.New(0)
	bus.AttachSink(clock)
	opts := serveOptions(r.workDir, bus)
	opts.CacheDir = cacheDir
	dm, err := startDaemon(context.Background(), opts)
	if err != nil {
		return err
	}
	c := newClient(dm.base)
	var submitMS, tablesMS []float64
	for i := 0; i < 2; i++ {
		s, err := c.do(d.spec)
		switch {
		case err != nil:
			r.op(fmt.Errorf("serve probe: %w", err))
		case digest(s.text) != want:
			r.op(fmt.Errorf("serve probe: job %s served tables digest %s, the sweep's is %s", s.id, digest(s.text), want))
		default:
			r.op(nil)
		}
		submitMS = append(submitMS, float64(s.submit.Nanoseconds())/1e6)
		tablesMS = append(tablesMS, float64(s.tables.Nanoseconds())/1e6)
	}
	c.hc.CloseIdleConnections()
	if err := dm.stop(); err != nil {
		r.problem("serve probe drain: %v", err)
	}
	if err := bus.SinkErr(); err != nil {
		return err
	}
	snap := opts.Metrics.Snapshot()
	idx, _ := snap.Lookup(telemetry.MetricServeIndexRecords)
	wait, run := clock.phases()
	r.set("serve.submit_ms", mean(submitMS))
	r.set("serve.tables_ms", mean(tablesMS))
	r.set("serve.queue_wait_ms", mean(wait))
	r.set("serve.run_ms", mean(run))
	r.set("serve.index_records", idx/2)
	r.set("serve.http_errors", sumSeries(snap, telemetry.MetricServeHTTPErrors))
	return nil
}
