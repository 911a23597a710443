package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"racetrack/hifi/internal/engine"
	"racetrack/hifi/internal/experiments"
	"racetrack/hifi/internal/serve"
	"racetrack/hifi/internal/telemetry"
	"racetrack/hifi/internal/telemetry/events"
)

// The serve-mixed traffic: two closed-loop clients. Of every block of
// mixBlock submissions exactly one is cold, at a seeded position, so
// the mix is the same on every seed; only which specs run differs.
const (
	clients = 2
	// A cold submission is this scaled experiment with a trace seed no
	// earlier submission used: it simulates, writes cache objects and
	// index records.
	coldExperiment = "fig14"
	coldAccesses   = 1000
	mixBlock       = 5
	// batchSize completed submissions make up one unit of wall_s.
	batchSize = 50
	// primeSpecs cold specs are run, untimed, before measuring so that
	// warm submissions have completed specs to resubmit.
	primeSpecs = 4
	// recheckSpecs completed specs are re-rendered in-process after the
	// measured window and compared byte for byte with what was served.
	recheckSpecs = 3
	// rssAfter is how many completed submissions of the timed window
	// peak_rss_mb is read after. The daemon keeps every job it served,
	// each with its event replay ring, so the process grows with the
	// number of submissions; reading it after a fixed count keeps a
	// faster daemon (more submissions per window) from reading as a
	// memory regression.
	rssAfter = 300
)

func coldSpec(seed uint64) serve.Spec {
	return serve.Spec{Run: []string{coldExperiment}, Scaled: true, Accesses: coldAccesses, Seed: seed}
}

// daemon is an in-process hifi-serve on a loopback listener.
type daemon struct {
	srv  *serve.Server
	hs   *http.Server
	base string
	done chan error
}

// serveOptions configures the daemon as cmd/hifi-serve does by default
// (a metrics registry for /metrics, an access log, two runners), with
// one engine worker per job. bus may be nil; the server then makes its
// own.
func serveOptions(workDir string, bus *events.Bus) serve.Options {
	reg := telemetry.NewRegistry()
	bus.Instrument(reg)
	return serve.Options{
		Workers:   1,
		Runners:   2,
		CacheDir:  filepath.Join(workDir, "cache"),
		Metrics:   reg,
		Events:    bus,
		AccessLog: io.Discard,
	}
}

// startDaemon builds the server (replaying the job index of its cache
// directory) and returns once its listener answers /healthz.
func startDaemon(ctx context.Context, opts serve.Options) (*daemon, error) {
	srv := serve.New(opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{srv: srv, hs: &http.Server{Handler: srv.Handler()},
		base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { d.done <- d.hs.Serve(ln) }()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/healthz", nil)
	if err != nil {
		d.close()
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		d.close()
		return nil, fmt.Errorf("daemon not accepting: %w", err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close() // only read
	http.DefaultClient.CloseIdleConnections()
	return d, nil
}

// close stops the listener without draining the server.
func (d *daemon) close() {
	_ = d.hs.Close() // Serve's own return value is collected below
	<-d.done
}

// stop drains the server, then closes the listener.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, err := d.srv.Drain(ctx)
	d.close()
	return err
}

// client is one closed-loop API client with a single connection.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}}
}

// served is one submission's outcome, timed from the client.
type served struct {
	spec     serve.Spec
	cold     bool
	id       string
	text     string
	latency  time.Duration // submit to tables received
	submit   time.Duration // POST round trip
	tables   time.Duration // GET tables round trip
	executed uint64
	doneAt   time.Time
}

// do submits spec, follows the job's event stream to its terminal
// event, reads its status and then its tables.
func (c *client) do(spec serve.Spec) (served, error) {
	out := served{spec: spec}
	body, err := json.Marshal(spec)
	if err != nil {
		return out, err
	}
	start := time.Now()
	resp, err := c.hc.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return out, err
	}
	var st serve.JobStatus
	err = decodeBody(resp, http.StatusAccepted, &st)
	out.submit = time.Since(start)
	if err != nil {
		return out, fmt.Errorf("submit: %w", err)
	}
	out.id = st.ID
	if err := c.follow(st.ID); err != nil {
		return out, err
	}
	resp, err = c.hc.Get(c.base + "/v1/jobs/" + st.ID)
	if err != nil {
		return out, err
	}
	if err := decodeBody(resp, http.StatusOK, &st); err != nil {
		return out, fmt.Errorf("status: %w", err)
	}
	if st.State != serve.StateDone {
		return out, fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	if st.Engine != nil {
		out.executed = st.Engine.Executed
	}
	t0 := time.Now()
	resp, err = c.hc.Get(c.base + "/v1/jobs/" + st.ID + "/tables")
	if err != nil {
		return out, err
	}
	b, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close() // only read; the read error is checked below
	out.doneAt = time.Now()
	out.tables = out.doneAt.Sub(t0)
	out.latency = out.doneAt.Sub(start)
	if err != nil {
		return out, err
	}
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("tables: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(b)))
	}
	out.text = string(b)
	return out, nil
}

// follow reads a job's SSE stream until its terminal event.
func (c *client) follow(id string) error {
	resp, err := c.hc.Get(c.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events: HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		switch strings.TrimPrefix(sc.Text(), "event: ") {
		case string(events.ServeJobFinished):
			return nil
		case string(events.ServeJobFailed), string(events.ServeJobCanceled):
			return fmt.Errorf("job %s: %s", id, sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("events: %w", err)
	}
	return fmt.Errorf("job %s: event stream ended before a terminal event", id)
}

func decodeBody(resp *http.Response, want int, v any) error {
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(b)))
	}
	return json.Unmarshal(b, v)
}

// mix generates the seeded submission sequence and holds the pool of
// completed specs that warm submissions resubmit.
type mix struct {
	mu       sync.Mutex
	rng      *rand.Rand
	next     int    // submissions handed out
	coldAt   int    // position of the cold submission in the current block
	nextSeed uint64 // trace seed of the next cold spec
	done     []served
	inFlight map[int]bool // indexes in done being resubmitted
	errs     []error
	ops      []served
	rssMB    float64 // peak RSS once rssAfter submissions completed
}

func newMix(seed uint64) *mix {
	return &mix{
		rng:      rand.New(rand.NewSource(int64(seed))),
		nextSeed: seed<<20 + 1,
		inFlight: map[int]bool{},
	}
}

// take returns the next submission: a cold spec (pick -1), or the
// index in done of a completed spec to resubmit.
func (m *mix) take() (spec serve.Spec, pick int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.next%mixBlock == 0 {
		m.coldAt = m.rng.Intn(mixBlock)
	}
	pos := m.next % mixBlock
	m.next++
	if pos == m.coldAt || len(m.done) <= len(m.inFlight) {
		return m.newColdSpec(), -1
	}
	for {
		// At most one pick per client is in flight, so this ends fast.
		if i := m.rng.Intn(len(m.done)); !m.inFlight[i] {
			m.inFlight[i] = true
			return m.done[i].spec, i
		}
	}
}

// newColdSpec returns a cold spec with a trace seed not used before.
// Callers hold m.mu or own m alone.
func (m *mix) newColdSpec() serve.Spec {
	m.nextSeed++
	return coldSpec(m.nextSeed)
}

// submit makes one submission of the mix and records it.
func (m *mix) submit(c *client) {
	spec, pick := m.take()
	s, err := c.do(spec)
	s.cold = pick < 0
	m.finish(s, pick, err)
}

// finish records a submission's outcome and checks it: a warm
// resubmission must serve the same bytes as its cold original without
// executing a simulation, and a cold one must simulate.
func (m *mix) finish(s served, pick int, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if pick >= 0 {
		delete(m.inFlight, pick)
	}
	switch {
	case err != nil:
	case pick >= 0 && s.text != m.done[pick].text:
		err = fmt.Errorf("job %s: warm tables differ from the cold original (seed %d)", s.id, s.spec.Seed)
	case pick >= 0 && s.executed != 0:
		err = fmt.Errorf("job %s: warm resubmission executed %d simulations", s.id, s.executed)
	case pick < 0 && s.executed == 0:
		err = fmt.Errorf("job %s: cold submission executed nothing", s.id)
	}
	if err != nil {
		m.errs = append(m.errs, err)
		return
	}
	m.ops = append(m.ops, s)
	if len(m.ops) == rssAfter {
		m.rssMB = peakRSSMB()
	}
	if s.cold {
		m.done = append(m.done, s)
	}
}

// drive runs the closed loop against base for window and returns the
// submissions made in it.
func (m *mix) drive(base string, window time.Duration) (ops []served, errs []error) {
	m.mu.Lock()
	m.ops, m.errs, m.rssMB = nil, nil, 0
	m.mu.Unlock()
	deadline := time.Now().Add(window)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(base)
			defer c.hc.CloseIdleConnections()
			for time.Now().Before(deadline) {
				m.submit(c)
			}
		}()
	}
	wg.Wait()
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ops, m.errs
}

// mixStats summarises one measured window.
type mixStats struct {
	ops            []served
	coldMS, warmMS []float64
	batchWalls     []float64
	perSecond      float64
}

func summarise(ops []served) mixStats {
	st := mixStats{ops: ops}
	sort.Slice(ops, func(i, j int) bool { return ops[i].doneAt.Before(ops[j].doneAt) })
	for _, s := range ops {
		ms := float64(s.latency.Nanoseconds()) / 1e6
		if s.cold {
			st.coldMS = append(st.coldMS, ms)
		} else {
			st.warmMS = append(st.warmMS, ms)
		}
	}
	for i := batchSize; i < len(ops); i += batchSize {
		st.batchWalls = append(st.batchWalls, ops[i].doneAt.Sub(ops[i-batchSize].doneAt).Seconds())
	}
	if len(ops) > 1 {
		st.perSecond = float64(len(ops)-1) / ops[len(ops)-1].doneAt.Sub(ops[0].doneAt).Seconds()
	}
	return st
}

// runServeMixed is the whole serve-mixed run: prime the cache, measure
// set-up in fresh processes (timed run), drive the measured window,
// and re-render a sample of served specs in-process. A traced run
// drives a second window on a daemon with metrics, an event sink and a
// CPU profile on.
func runServeMixed(r *runner) error {
	m := newMix(r.seed)
	d, err := startDaemon(context.Background(), serveOptions(r.workDir, nil))
	if err != nil {
		return err
	}
	c := newClient(d.base)
	for i := 0; i < primeSpecs; i++ {
		s, err := c.do(m.newColdSpec())
		s.cold = true
		m.finish(s, -1, err)
	}
	c.hc.CloseIdleConnections()
	if err := d.stop(); err != nil {
		return fmt.Errorf("priming daemon: %w", err)
	}
	if len(m.errs) > 0 {
		return fmt.Errorf("priming: %v", m.errs[0])
	}
	if !r.traced {
		setup, err := r.measureSetup()
		if err != nil {
			return err
		}
		r.set("setup_s", setup)
	}

	timed, _, err := r.serveWindow(m, nil)
	if err != nil {
		return err
	}
	if !r.traced {
		r.set("wall_s", median(timed.batchWalls))
		r.set("jobs_per_s", timed.perSecond)
		if m.rssMB == 0 {
			r.problem("window too short: fewer than %d submissions before reading peak RSS", rssAfter)
		}
		r.set("peak_rss_mb", m.rssMB)
		r.setLatencies(timed.coldMS, timed.warmMS)
		return r.recheck(context.Background(), m)
	}

	sink := &serveClock{}
	bus := events.New(0)
	bus.AttachSink(sink)
	before := readRuntime()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	traced, snap, err := r.serveWindow(m, bus)
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	after := readRuntime()
	if err := bus.SinkErr(); err != nil {
		return err
	}
	n := float64(len(traced.ops))
	get := func(name string) float64 { v, _ := snap.Lookup(name); return v }
	jobs, executed := get(telemetry.MetricEngineJobs), get(telemetry.MetricEngineExecuted)
	r.set("tracing.overhead_frac", median(traced.batchWalls)/median(timed.batchWalls)-1)
	r.set("engine.jobs", jobs/n)
	r.set("engine.executed", executed/n)
	r.set("engine.cache_hit_frac", ratio(get(telemetry.MetricEngineCacheHits), jobs))
	r.set("runtime.gc_cpu_share", after.gcShare(before))
	r.set("runtime.num_gc", float64(after.numGC-before.numGC)/n)
	r.set("memsim.alloc_mb_per_job", float64(after.allocBytes-before.allocBytes)/(1<<20)/executed)
	r.registryMetrics(snap, n)
	var submitMS, tablesMS []float64
	for _, s := range traced.ops {
		submitMS = append(submitMS, float64(s.submit.Nanoseconds())/1e6)
		tablesMS = append(tablesMS, float64(s.tables.Nanoseconds())/1e6)
	}
	r.set("serve.submit_ms", mean(submitMS))
	r.set("serve.tables_ms", mean(tablesMS))
	wait, run := sink.phases()
	r.set("serve.queue_wait_ms", mean(wait))
	r.set("serve.run_ms", mean(run))
	r.set("serve.index_records", get(telemetry.MetricServeIndexRecords)/n)
	r.set("serve.http_errors", sumSeries(snap, telemetry.MetricServeHTTPErrors))
	if err := r.profileShares(prof.Bytes()); err != nil {
		return err
	}
	col := telemetry.NewSpanCollector(nil)
	if err := r.recheck(telemetry.WithCollector(context.Background(), col), m); err != nil {
		return err
	}
	r.spanMetrics(col.Export())
	return r.probeLayers(newSweepDef(coldSpec(r.seed)), "")
}

// serveWindow runs one measured window on a fresh daemon over the
// primed cache directory and counts every submission as an operation.
// It returns the daemon's metrics at the end of the window.
func (r *runner) serveWindow(m *mix, bus *events.Bus) (mixStats, telemetry.Snapshot, error) {
	opts := serveOptions(r.workDir, bus)
	d, err := startDaemon(context.Background(), opts)
	if err != nil {
		return mixStats{}, telemetry.Snapshot{}, err
	}
	ops, errs := m.drive(d.base, r.window)
	if err := d.stop(); err != nil {
		r.problem("daemon drain: %v", err)
	}
	for range ops {
		r.op(nil)
	}
	for _, err := range errs {
		r.op(err)
	}
	st := summarise(ops)
	if len(st.batchWalls) == 0 {
		return st, telemetry.Snapshot{}, fmt.Errorf("window too short: %d submissions, need more than %d", len(ops), batchSize)
	}
	r.facts["submissions"] = len(ops)
	return st, opts.Metrics.Snapshot(), nil
}

// recheck re-renders a seeded sample of served specs in-process with
// experiments.Run and compares each with the bytes the daemon served.
// ctx may carry a span collector; each spec is one root span.
func (r *runner) recheck(ctx context.Context, m *mix) error {
	rng := rand.New(rand.NewSource(int64(r.seed) + 7))
	for i := 0; i < recheckSpecs && len(m.done) > 0; i++ {
		s := m.done[rng.Intn(len(m.done))]
		opts, err := s.spec.RunOpts()
		if err != nil {
			return err
		}
		opts.Eng = engine.New(engine.Options{Workers: 1})
		sctx, sp := telemetry.StartSpan(ctx, "recheck")
		opts.Ctx = sctx
		tables := map[string]experiments.Table{}
		for _, k := range s.spec.Run {
			tab, err := experiments.Run(k, opts)
			if err != nil {
				sp.End()
				return err
			}
			tables[k] = tab
		}
		sp.End()
		if got := render(s.spec.Run, tables); got != s.text {
			r.op(fmt.Errorf("job %s: served tables differ from an in-process run of its spec", s.id))
		} else {
			r.op(nil)
		}
	}
	return nil
}

// serveClock times the daemon's job phases from its event stream: the
// daemon bus's synchronous sink.
type serveClock struct {
	mu       sync.Mutex
	accepted map[string]time.Time
	started  map[string]time.Time
	wait     []float64
	run      []float64
}

func (c *serveClock) Write(p []byte) (int, error) {
	now := time.Now()
	var e events.Event
	if err := json.Unmarshal(p, &e); err != nil {
		return 0, fmt.Errorf("perfbench: event line: %w", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.accepted == nil {
		c.accepted, c.started = map[string]time.Time{}, map[string]time.Time{}
	}
	switch e.Type {
	case events.ServeJobAccepted:
		c.accepted[e.Name] = now
	case events.ServeJobStarted:
		if t, ok := c.accepted[e.Name]; ok {
			c.wait = append(c.wait, float64(now.Sub(t).Nanoseconds())/1e6)
		}
		c.started[e.Name] = now
	case events.ServeJobFinished:
		if t, ok := c.started[e.Name]; ok {
			c.run = append(c.run, float64(now.Sub(t).Nanoseconds())/1e6)
		}
	}
	return len(p), nil
}

func (c *serveClock) phases() (wait, run []float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.wait, c.run
}

// sumSeries adds every labelled series of one counter.
func sumSeries(s telemetry.Snapshot, base string) float64 {
	var sum float64
	for _, c := range s.Counters {
		if c.Name == base || strings.HasPrefix(c.Name, base+"{") {
			sum += c.Value
		}
	}
	return sum
}
