package main

import (
	"bytes"
	"io/fs"
	"math"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// Every package of the module must be in the package→layer table, and
// every table entry must still exist, so no sample can lose its layer
// to a package the table forgot.
func TestPackageTableCoversModule(t *testing.T) {
	seen := map[string]bool{}
	err := filepath.WalkDir("..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		rel, err := filepath.Rel("..", path)
		if err != nil {
			return err
		}
		name := d.Name()
		if rel != "." && (strings.HasPrefix(name, ".") || name == "testdata" ||
			rel == "perfbench" || rel == "cmd" || rel == "examples") {
			return filepath.SkipDir // not packages the harness links (cmd and examples hold main packages)
		}
		files, err := filepath.Glob(filepath.Join(path, "*.go"))
		if err != nil {
			return err
		}
		for _, f := range files {
			if !strings.HasSuffix(f, "_test.go") {
				if rel == "." {
					rel = ""
				}
				seen[filepath.ToSlash(rel)] = true
				break
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for pkg := range seen {
		if _, ok := packageLayers[pkg]; !ok {
			t.Errorf("package %q has no layer in packageLayers", pkg)
		}
	}
	for pkg := range packageLayers {
		if !seen[pkg] {
			t.Errorf("packageLayers lists %q, which is not a package of the module", pkg)
		}
	}
	named := map[string]bool{}
	for _, l := range layerOrder {
		named[l] = true
	}
	for pkg, l := range packageLayers {
		if !named[l] {
			t.Errorf("package %q maps to %q, which is not in layerOrder", pkg, l)
		}
	}
}

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"racetrack/hifi/internal/cache.(*Cache).Access":                         "racetrack/hifi/internal/cache",
		"racetrack/hifi/internal/experiments.RunOpts.simJob.func1":              "racetrack/hifi/internal/experiments",
		"racetrack/hifi/internal/engine.DecodeAll[go.shape.struct { a.b/c.D }]": "racetrack/hifi/internal/engine",
		"racetrack/hifi.Simulate":                                               "racetrack/hifi",
		"math.Log":                                                              "math",
		"runtime.mallocgc":                                                      "runtime",
		"main.main":                                                             "main",
		"net/http.(*conn).serve":                                                "net/http",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}

// A sample belongs to the layer of its innermost repo frame: library
// code called from a layer counts as that layer.
func TestInnermostRepoFrame(t *testing.T) {
	cases := []struct {
		frames []string
		want   string
	}{
		{[]string{"math.Log", "math.log", "racetrack/hifi/internal/sim.(*RNG).Geometric",
			"racetrack/hifi/internal/trace.(*Generator).Next", "racetrack/hifi/internal/memsim.(*system).step"}, layerTrace},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc",
			"racetrack/hifi/internal/cache.New", "racetrack/hifi/internal/memsim.newSystem"}, layerCache},
		{[]string{"racetrack/hifi/internal/shiftctrl.(*Adapter).SequenceFor",
			"racetrack/hifi/internal/memsim.(*system).shiftFor"}, layerShiftctrl},
		{[]string{"encoding/json.Marshal", "racetrack/hifi/internal/telemetry/events.(*Bus).Emit",
			"racetrack/hifi/internal/engine.(*Engine).process"}, layerTelemetry},
		{[]string{"syscall.Syscall", "net/http.(*conn).serve"}, layerRuntime},
		{[]string{"runtime.gcBgMarkWorker"}, layerRuntime},
		{nil, layerRuntime},
		{[]string{"bufio.(*Scanner).Scan", "main.(*client).follow"}, layerHarness},
		// A module package the table does not know falls through to the
		// next repo frame out instead of losing the sample.
		{[]string{"racetrack/hifi/internal/nosuch.F", "racetrack/hifi/internal/serve.(*Server).runJob"}, layerServe},
	}
	for _, c := range cases {
		if got := sampleLayer(c.frames); got != c.want {
			t.Errorf("sampleLayer(%q) = %q, want %q", c.frames, got, c.want)
		}
	}
}

// Every sample lands in exactly one named layer: the per-layer counts
// add up to the total and the shares to one.
func TestRollupEverySampleOnce(t *testing.T) {
	samples := []stackSample{
		{3, []string{"racetrack/hifi/internal/cache.(*Cache).Access"}},
		{2, []string{"runtime.futex"}},
		{4, []string{"math.Pow", "racetrack/hifi/internal/sim.(*RNG).Zipf"}},
		{1, []string{"main.run"}},
		{5, []string{"racetrack/hifi/internal/nosuch.F"}},
	}
	r := rollup(samples)
	if r.Total != 15 {
		t.Fatalf("total %d, want 15", r.Total)
	}
	var sum int64
	var shares float64
	for _, l := range layerOrder {
		sum += r.ByLayer[l]
		shares += r.share(l)
	}
	if sum != r.Total || math.Abs(shares-1) > 1e-12 {
		t.Fatalf("layers hold %d of %d samples (shares sum %v)", sum, r.Total, shares)
	}
	if got := r.ByLayer[layerRuntime]; got != 7 {
		t.Errorf("runtime holds %d samples, want 7 (futex + the unmapped package)", got)
	}
}

var spinSink float64

//go:noinline
func spinForProfile(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			spinSink += math.Sqrt(float64(i))
		}
	}
}

// The decoder reads a real runtime/pprof CPU profile: samples carry
// counts and symbolised stacks, innermost first.
func TestParseRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profile unavailable: %v", err)
	}
	spinForProfile(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, spin int64
	for _, s := range samples {
		if s.Count <= 0 {
			t.Fatalf("sample with count %d", s.Count)
		}
		total += s.Count
		for _, f := range s.Frames {
			if strings.HasSuffix(f, ".spinForProfile") {
				spin += s.Count
				break
			}
		}
	}
	if spin == 0 {
		t.Fatalf("none of %d samples in spinForProfile", total)
	}
	if got := rollup(samples).ByLayer[layerHarness]; got < spin {
		t.Errorf("harness layer holds %d samples, want at least the %d in spinForProfile", got, spin)
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	if _, err := parseProfile([]byte{0x12, 0xff}); err == nil {
		t.Fatal("truncated profile parsed without error")
	}
}
