package main

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
)

// provenance describes where a result came from: the code, the host and
// the run's settings, so results from different hosts or commits are
// never compared unawares.
func provenance(workload string, seed uint64, seconds float64, traced bool) map[string]any {
	sha, dirty := gitSHA()
	return map[string]any{
		"git_sha":     sha,
		"git_dirty":   dirty,
		"cpu_model":   cpuModel(),
		"num_cpu":     runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go_version":  runtime.Version(),
		"goos_goarch": runtime.GOOS + "/" + runtime.GOARCH,
		"workload":    workload,
		"seed":        seed,
		"seconds":     seconds,
		"traced":      traced,
	}
}

// gitSHA reads the VCS stamp the go command embeds, falling back to
// `git rev-parse` when the binary was built without one (a checkout
// that is not a repository reports "unknown").
func gitSHA() (string, bool) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		var sha string
		var dirty bool
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				sha = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if sha != "" {
			return sha, dirty
		}
	}
	out, err := git("rev-parse", "HEAD")
	if err != nil {
		return "unknown", false
	}
	status, err := git("status", "--porcelain", "--untracked-files=no")
	return strings.TrimSpace(string(out)), err == nil && len(status) > 0
}

// git runs a git command in the working directory without letting it
// look for a repository above it.
func git(args ...string) ([]byte, error) {
	wd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command("git", args...)
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	return cmd.Output()
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
