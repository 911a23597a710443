package main

import "strings"

// modulePath is the import-path prefix of the program's packages.
const modulePath = "racetrack/hifi"

// harnessPath is this package's import path, which its frames carry in
// test binaries; in the benchmark binary they carry "main".
const harnessPath = modulePath + "/perfbench"

// Layer names, in report order. Every profile sample is attributed to
// exactly one of them.
const (
	layerTrace       = "trace"
	layerCache       = "cache"
	layerShiftctrl   = "shiftctrl"
	layerMemsim      = "memsim"
	layerEngine      = "engine"
	layerExperiments = "experiments"
	layerServe       = "serve"
	layerTelemetry   = "telemetry"
	layerHarness     = "harness"
	layerRuntime     = "runtime"
)

var layerOrder = []string{layerTrace, layerCache, layerShiftctrl, layerMemsim,
	layerEngine, layerExperiments, layerServe, layerTelemetry, layerHarness, layerRuntime}

// packageLayers maps every package of the module (path relative to the
// module root; "" is the root package) to the layer it belongs to. A
// test checks that every package directory of the module is listed.
var packageLayers = map[string]string{
	"internal/trace": layerTrace,
	"internal/sim":   layerTrace,

	"internal/cache": layerCache,

	"internal/shiftctrl": layerShiftctrl,
	"internal/pecc":      layerShiftctrl,
	"internal/sts":       layerShiftctrl,
	"internal/errmodel":  layerShiftctrl,
	"internal/becc":      layerShiftctrl,
	"internal/stripe":    layerShiftctrl,
	"internal/sparing":   layerShiftctrl,
	"internal/faults":    layerShiftctrl,

	"internal/memsim": layerMemsim,

	"internal/engine":         layerEngine,
	"internal/engine/faultfs": layerEngine,

	"":                     layerExperiments,
	"internal/experiments": layerExperiments,
	"internal/physics":     layerExperiments,
	"internal/area":        layerExperiments,
	"internal/energy":      layerExperiments,
	"internal/mttf":        layerExperiments,
	"internal/design":      layerExperiments,
	"internal/fidelity":    layerExperiments,
	"internal/report":      layerExperiments,

	"internal/serve": layerServe,
	"internal/watch": layerServe,

	"internal/telemetry":            layerTelemetry,
	"internal/telemetry/events":     layerTelemetry,
	"internal/telemetry/log":        layerTelemetry,
	"internal/telemetry/slo":        layerTelemetry,
	"internal/telemetry/timeseries": layerTelemetry,
	"internal/telemetry/tracectx":   layerTelemetry,
	"internal/profile":              layerTelemetry,
	"internal/cliutil":              layerTelemetry,
	"internal/bench":                layerTelemetry,
	"internal/tools/errvet":         layerTelemetry,
	"internal/tools/metriclint":     layerTelemetry,
}

// funcPackage returns the import path of a fully qualified function
// name as the runtime reports it, e.g.
// "racetrack/hifi/internal/cache.(*Cache).Access" → "racetrack/hifi/internal/cache".
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiation: the type list may hold dots and slashes
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// frameLayer returns the layer of one frame and whether the frame
// belongs to a repo package. The harness's own frames are repo frames
// of the harness layer. A module package missing from
// packageLayers is not a repo frame, so its samples fall through to an
// outer frame rather than to no layer.
func frameLayer(fn string) (string, bool) {
	pkg := funcPackage(fn)
	if pkg == "main" || pkg == harnessPath {
		return layerHarness, true
	}
	var rel string
	switch {
	case pkg == modulePath:
	case strings.HasPrefix(pkg, modulePath+"/"):
		rel = pkg[len(modulePath)+1:]
	default:
		return "", false
	}
	l, ok := packageLayers[rel]
	return l, ok
}

// sampleLayer attributes a stack (innermost frame first) to the layer
// of its innermost repo frame, or to the runtime layer when no frame
// belongs to the repo.
func sampleLayer(frames []string) string {
	for _, f := range frames {
		if l, ok := frameLayer(f); ok {
			return l
		}
	}
	return layerRuntime
}

// layerRollup is a profile's samples split by layer.
type layerRollup struct {
	Total   int64
	ByLayer map[string]int64
}

func rollup(samples []stackSample) layerRollup {
	r := layerRollup{ByLayer: map[string]int64{}}
	for _, s := range samples {
		r.Total += s.Count
		r.ByLayer[sampleLayer(s.Frames)] += s.Count
	}
	return r
}

// share returns a layer's fraction of all samples (0 for an empty profile).
func (r layerRollup) share(layer string) float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.ByLayer[layer]) / float64(r.Total)
}
