package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"time"

	"racetrack/hifi/internal/engine"
)

// setupProbes is how many fresh processes measure set-up; the median is
// reported.
const setupProbes = 15

// rssProbes is how many fresh processes each run one sweep to measure a
// sweep's peak RSS; the largest is reported. A sweep's peak depends on
// whether the collector frees the previous job's 48 MiB tag array
// before the next job allocates its own, which varies from process to
// process; the largest of three is the high case nearly always.
const rssProbes = 3

// readyLine is what a set-up probe prints once its workload could start
// its first timed operation.
const readyLine = "ready"

// measureSetup starts this binary setupProbes times in set-up-only mode
// and returns the median time from starting the process to its ready
// line. That covers exec, runtime and package initialisation (global
// tables) and the workload's own set-up, so work moved into any of them
// shows.
func (r *runner) measureSetup() (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var times []float64
	for i := 0; i < setupProbes; i++ {
		cmd := exec.Command(exe, "--probe", "setup", "--workload", r.workload,
			"--seed", strconv.FormatUint(r.seed, 10), "--work-dir", r.workDir)
		cmd.Stderr = r.log
		out, err := cmd.StdoutPipe()
		if err != nil {
			return 0, err
		}
		start := time.Now()
		if err := cmd.Start(); err != nil {
			return 0, fmt.Errorf("setup probe: %w", err)
		}
		line, readErr := bufio.NewReader(out).ReadString('\n')
		elapsed := time.Since(start)
		_, _ = io.Copy(io.Discard, out) // let the probe exit without a broken pipe
		waitErr := cmd.Wait()
		switch {
		case readErr != nil || line != readyLine+"\n":
			return 0, fmt.Errorf("setup probe printed %q: %v", line, readErr)
		case waitErr != nil:
			return 0, fmt.Errorf("setup probe: %w", waitErr)
		}
		times = append(times, elapsed.Seconds())
	}
	r.facts["setup_probe_s"] = times
	return median(times), nil
}

// measureSweepRSS starts this binary rssProbes times, each running one
// sweep of the workload in a fresh process and printing its peak RSS,
// and returns the largest.
func (r *runner) measureSweepRSS() (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var peaks []float64
	for i := 0; i < rssProbes; i++ {
		cmd := exec.Command(exe, "--probe", "rss", "--workload", r.workload,
			"--seed", strconv.FormatUint(r.seed, 10))
		cmd.Stderr = r.log
		out, err := cmd.Output()
		if err != nil {
			return 0, fmt.Errorf("rss probe: %w", err)
		}
		mb, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
		if err != nil {
			return 0, fmt.Errorf("rss probe printed %q", out)
		}
		peaks = append(peaks, mb)
	}
	r.facts["rss_probe_mb"] = peaks
	return slices.Max(peaks), nil
}

// sweepRSS runs one sweep of a sweep workload and prints the process's
// peak RSS in MiB: the child side of measureSweepRSS.
func sweepRSS(workload string, seed uint64, stdout io.Writer) error {
	def, ok := sweepDefs[workload]
	if !ok {
		return fmt.Errorf("%s is not a sweep workload", workload)
	}
	if _, _, _, err := def(seed).sweepOnce(context.Background(), nil, &jobClock{}); err != nil {
		return err
	}
	_, err := fmt.Fprintln(stdout, peakRSSMB())
	return err
}

// setUpOnly performs one workload's set-up, prints the ready line and
// returns: the child side of measureSetup.
func setUpOnly(workload string, seed uint64, workDir string, stdout io.Writer) error {
	if def, ok := sweepDefs[workload]; ok {
		// A sweep's set-up is building its options and its engine.
		d := def(seed)
		d.opts.Eng = engine.New(engine.Options{Workers: 1})
	} else {
		d, err := startDaemon(context.Background(), serveOptions(workDir, nil))
		if err != nil {
			return err
		}
		// Stop like a crash: no drain, so the primed job index the next
		// probe replays stays as the parent left it.
		defer d.close()
	}
	_, err := fmt.Fprintln(stdout, readyLine)
	return err
}
