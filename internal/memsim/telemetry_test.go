package memsim

import (
	"context"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"

	"racetrack/hifi/internal/cache"
	"racetrack/hifi/internal/energy"
	"racetrack/hifi/internal/shiftctrl"
	"racetrack/hifi/internal/telemetry"
	"racetrack/hifi/internal/telemetry/timeseries"
	"racetrack/hifi/internal/trace"
)

func counterValue(s telemetry.Snapshot, name string) float64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

func histogramData(t *testing.T, s telemetry.Snapshot, name string) telemetry.HistogramData {
	t.Helper()
	for _, h := range s.Histograms {
		if h.Name == name {
			return h
		}
	}
	t.Fatalf("histogram %s not in snapshot", name)
	return telemetry.HistogramData{}
}

// TestTelemetryMatchesResult checks that the published series equal the
// model's own counts exactly once a run without warmup ends.
func TestTelemetryMatchesResult(t *testing.T) {
	w := smallWorkload("canneal", 512<<10)
	cfg := smallConfig(energy.Racetrack, shiftctrl.PECCSAdaptive)
	reg := telemetry.NewRegistry()
	cfg.Metrics = reg
	cfg.fillDefaults()
	s := newSystem(context.Background(), w, cfg)
	s.run(context.Background())
	r := s.result()
	snap := reg.Snapshot()

	exact := func(name string, got float64, want uint64) {
		t.Helper()
		if got != float64(want) {
			t.Errorf("%s = %v, want %d", name, got, want)
		}
	}
	for _, lv := range []struct {
		level string
		stats cache.Stats
	}{
		{"l1", sumStats(s.l1)}, {"l2", sumStats(s.l2)}, {"l3", r.L3},
	} {
		for _, c := range []struct {
			metric string
			want   uint64
		}{
			{telemetry.MetricCacheHits, lv.stats.Hits},
			{telemetry.MetricCacheMisses, lv.stats.Misses},
			{telemetry.MetricCacheEvictions, lv.stats.Evictions},
			{telemetry.MetricCacheWritebacks, lv.stats.Writebacks},
		} {
			name := telemetry.Label(c.metric, "level", lv.level)
			exact(name, counterValue(snap, name), c.want)
		}
	}
	if l1 := sumStats(s.l1); l1.Hits != r.L1.Hits || l1.Misses != r.L1.Misses || l1.Writebacks != r.L1.Writebacks {
		t.Errorf("summed L1 stats %+v disagree with Result %+v", l1, r.L1)
	}
	if l2 := sumStats(s.l2); l2.Hits != r.L2.Hits || l2.Misses != r.L2.Misses || l2.Writebacks != r.L2.Writebacks {
		t.Errorf("summed L2 stats %+v disagree with Result %+v", l2, r.L2)
	}
	if r.L3.Evictions == 0 || r.ShiftOps == 0 {
		t.Fatalf("run too small to exercise the series: %+v", r)
	}

	exact(telemetry.MetricShiftOps, counterValue(snap, telemetry.MetricShiftOps), r.ShiftOps)
	exact(telemetry.MetricShiftSteps, counterValue(snap, telemetry.MetricShiftSteps), r.ShiftSteps)
	exact(telemetry.MetricShiftCycles, counterValue(snap, telemetry.MetricShiftCycles), r.ShiftCycles)
	exact(telemetry.MetricPECCChecks, counterValue(snap, telemetry.MetricPECCChecks), r.ShiftOps)
	exact(telemetry.MetricDRAMFills, counterValue(snap, telemetry.MetricDRAMFills), r.L3.Misses)
	exact(telemetry.MetricDRAMWritebacks, counterValue(snap, telemetry.MetricDRAMWritebacks), r.L3.Writebacks)
	zero := counterValue(snap, telemetry.MetricShiftZero)
	exact(telemetry.MetricShiftZero, zero, s.rtm.ZeroShiftAccesses)

	// Without promotion buffer or eager head, every L3 access shifts
	// once (distance histogram) or not at all (zero counter).
	dist := histogramData(t, snap, telemetry.MetricShiftDistance)
	exact("distance count + zero", float64(dist.Count)+zero, r.L3.Hits+r.L3.Misses)
	exact("distance sum", dist.Sum, r.ShiftSteps)
	steps := histogramData(t, snap, telemetry.MetricShiftOpInterval)
	exact("op-steps count", float64(steps.Count), r.ShiftOps)
	exact("op-steps sum", steps.Sum, r.ShiftSteps)
	lat := histogramData(t, snap, telemetry.MetricShiftOpLatency)
	exact("op-latency count", float64(lat.Count), r.ShiftOps)
	exact("op-latency sum", lat.Sum, r.ShiftCycles)

	accesses := uint64(cfg.Cores * cfg.AccessesPerCore)
	if got, _ := snap.Lookup(telemetry.MetricSimAccessesDone); got != float64(accesses) {
		t.Errorf("accesses done = %v, want %d", got, accesses)
	}
	for _, c := range []struct {
		name string
		want float64
	}{
		{telemetry.MetricExpectedSDC, r.Tracker.ExpectedSDC()},
		{telemetry.MetricExpectedDUE, r.Tracker.ExpectedDUE()},
	} {
		if got := counterValue(snap, c.name); !relClose(got, c.want, 1e-9) {
			t.Errorf("%s = %g, want %g", c.name, got, c.want)
		}
	}
}

func relClose(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// TestSharedRegistryConcurrentRuns: two runs publishing into one
// registry at once must leave it holding the sum of two solo runs.
func TestSharedRegistryConcurrentRuns(t *testing.T) {
	a := smallConfig(energy.Racetrack, shiftctrl.PECCSAdaptive)
	a.PromoEntries = 8
	b := smallConfig(energy.Racetrack, shiftctrl.SED)
	b.EagerHead = true
	b.WarmupAccessesPerCore = 1000
	wa, wb := smallWorkload("canneal", 512<<10), smallWorkload("vips", 256<<10)

	solo := func(w trace.Workload, cfg Config) telemetry.Snapshot {
		cfg.Metrics = telemetry.NewRegistry()
		if _, err := Run(w, cfg); err != nil {
			t.Fatal(err)
		}
		return cfg.Metrics.Snapshot()
	}
	sa, sb := solo(wa, a), solo(wb, b)

	shared := telemetry.NewRegistry()
	a.Metrics, b.Metrics = shared, shared
	var wg sync.WaitGroup
	for _, run := range []struct {
		w   trace.Workload
		cfg Config
	}{{wa, a}, {wb, b}} {
		run := run
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := Run(run.w, run.cfg); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	got := shared.Snapshot()

	want := map[string]float64{}
	for _, s := range []telemetry.Snapshot{sa, sb} {
		for _, c := range s.Counters {
			want[c.Name] += c.Value
		}
	}
	if len(got.Counters) != len(want) {
		t.Errorf("shared registry has %d counters, solo runs %d", len(got.Counters), len(want))
	}
	for _, c := range got.Counters {
		w := want[c.Name]
		if strings.HasPrefix(c.Name, "hifi_expected_") {
			if !relClose(c.Value, w, 1e-9) {
				t.Errorf("%s = %g, want %g", c.Name, c.Value, w)
			}
		} else if c.Value != w {
			t.Errorf("%s = %v, want %v", c.Name, c.Value, w)
		}
	}
	for _, h := range got.Histograms {
		ha, hb := histogramData(t, sa, h.Name), histogramData(t, sb, h.Name)
		if h.Count != ha.Count+hb.Count || h.Sum != ha.Sum+hb.Sum {
			t.Errorf("%s count/sum = %d/%v, want %d/%v", h.Name, h.Count, h.Sum, ha.Count+hb.Count, ha.Sum+hb.Sum)
		}
		for i := range h.Counts {
			if h.Counts[i] != ha.Counts[i]+hb.Counts[i] {
				t.Errorf("%s bucket %d = %d, want %d", h.Name, i, h.Counts[i], ha.Counts[i]+hb.Counts[i])
			}
		}
	}
	// Every access, warmup included, reaches L1 exactly once.
	accesses := float64(a.Cores*a.AccessesPerCore + b.Cores*b.AccessesPerCore)
	done, _ := got.Lookup(telemetry.MetricSimAccessesDone)
	l1 := counterValue(got, telemetry.Label(telemetry.MetricCacheHits, "level", "l1")) +
		counterValue(got, telemetry.Label(telemetry.MetricCacheMisses, "level", "l1"))
	if done != accesses || l1 != accesses {
		t.Errorf("accesses done = %v, L1 accesses = %v, want %v", done, l1, accesses)
	}
}

// gatedSource pauses the run at the gate-th access drawn across all
// cores, until the test has looked at the registry.
type gatedSource struct {
	inner  Source
	drawn  *int
	gate   int
	paused chan<- struct{}
	resume <-chan struct{}
}

func (g *gatedSource) Next() trace.Access {
	if *g.drawn++; *g.drawn == g.gate {
		g.paused <- struct{}{}
		<-g.resume
	}
	return g.inner.Next()
}

// TestAccessesDoneAdvancesInFlight: a snapshot taken mid-run shows the
// blocks flushed so far, not zero and not the final count.
func TestAccessesDoneAdvancesInFlight(t *testing.T) {
	w := smallWorkload("ferret", 64<<10)
	cfg := smallConfig(energy.Racetrack, shiftctrl.SECDED)
	reg := telemetry.NewRegistry()
	cfg.Metrics = reg
	const gate = 2*flushEvery + 100
	paused, resume := make(chan struct{}), make(chan struct{})
	drawn := 0
	for i := 0; i < cfg.Cores; i++ {
		cfg.Sources = append(cfg.Sources, &gatedSource{
			inner: trace.NewGenerator(w, i, cfg.Seed),
			drawn: &drawn, gate: gate, paused: paused, resume: resume,
		})
	}
	errc := make(chan error, 1)
	go func() {
		_, err := Run(w, cfg)
		errc <- err
	}()
	<-paused
	mid, _ := reg.Snapshot().Lookup(telemetry.MetricSimAccessesDone)
	close(resume)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if mid != 2*flushEvery {
		t.Errorf("accesses done after %d accesses = %v, want the two flushed blocks (%d)", gate-1, mid, 2*flushEvery)
	}
	final, _ := reg.Snapshot().Lookup(telemetry.MetricSimAccessesDone)
	if want := float64(cfg.Cores * cfg.AccessesPerCore); final != want {
		t.Errorf("final accesses done = %v, want %v", final, want)
	}
}

// TestSamplerWindowsKeepTickRanges runs two simulations back to back on
// one sampler, as -jobs 1 does, with a window width that divides
// neither phase. Windows must end on every multiple of the width and at
// every phase end, and each window's series must cover exactly its
// ticks: the windows per-access ticking would cut.
func TestSamplerWindowsKeepTickRanges(t *testing.T) {
	const every = 1000
	reg := telemetry.NewRegistry()
	sampler := timeseries.New(reg, timeseries.Options{Every: every})
	cfg := smallConfig(energy.Racetrack, shiftctrl.PECCSAdaptive)
	cfg.AccessesPerCore = 1500
	cfg.WarmupAccessesPerCore = 333
	cfg.Metrics, cfg.Sampler = reg, sampler
	var ends []int64 // phase ends on the tick clock
	var tick int64
	for _, name := range []string{"ferret", "vips"} {
		if _, err := Run(smallWorkload(name, 64<<10), cfg); err != nil {
			t.Fatal(err)
		}
		tick += int64(cfg.Cores * cfg.WarmupAccessesPerCore)
		ends = append(ends, tick)
		tick += int64(cfg.Cores * (cfg.AccessesPerCore - cfg.WarmupAccessesPerCore))
		ends = append(ends, tick)
	}
	se := sampler.Export()

	cuts := map[int64]bool{}
	for b := int64(every); b < tick; b += every {
		cuts[b] = true
	}
	for _, e := range ends {
		cuts[e] = true
	}
	var want []int64
	for b := range cuts {
		want = append(want, b)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	var got []int64
	var start int64
	for _, w := range se.Windows {
		if w.StartTick != start {
			t.Fatalf("window %d starts at %d, want %d", w.Index, w.StartTick, start)
		}
		if w.EndTick == w.StartTick {
			continue // a marks-only window
		}
		got = append(got, w.EndTick)
		start = w.EndTick
		var l1 float64
		for _, c := range w.Counters {
			if strings.HasPrefix(c.Name, telemetry.MetricCacheHits+`{level="l1"`) ||
				strings.HasPrefix(c.Name, telemetry.MetricCacheMisses+`{level="l1"`) {
				l1 += c.Value
			}
		}
		if l1 != float64(w.EndTick-w.StartTick) {
			t.Errorf("window [%d, %d] holds %v L1 accesses", w.StartTick, w.EndTick, l1)
		}
		for _, g := range w.Gauges {
			if g.Name == telemetry.MetricSimAccessesDone && g.Value != float64(w.EndTick) {
				t.Errorf("window [%d, %d] closes with accesses done = %v", w.StartTick, w.EndTick, g.Value)
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("window ends %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("window ends %v, want %v", got, want)
		}
	}
}

// BenchmarkRunSharedRegistry times the hifi-serve shape: two scaled
// racetrack runs at once, both publishing into one registry.
func BenchmarkRunSharedRegistry(b *testing.B) {
	w := smallWorkload("canneal", 512<<10)
	cfg := DefaultConfig(energy.Racetrack, shiftctrl.PECCSAdaptive)
	cfg.AccessesPerCore = 10_000
	cfg.L1Capacity, cfg.L2Capacity, cfg.L3Capacity = 2<<10, 8<<10, 1<<20
	cfg.Metrics = telemetry.NewRegistry()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := Run(w, cfg); err != nil {
					b.Error(err)
				}
			}()
		}
		wg.Wait()
	}
}
