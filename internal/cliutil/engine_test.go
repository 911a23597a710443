package cliutil

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// parse registers the engine flags on a private flag set and parses
// args, returning the flag struct Build consumes.
func parse(t *testing.T, args ...string) *EngineFlags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	ef := AddEngineFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return ef
}

func TestBuildDegradesWhenCacheDirUnusable(t *testing.T) {
	// A regular file where the cache directory should be: MkdirAll can
	// never succeed, so Build must warn and hand back a cache-less
	// engine rather than failing the run.
	blocker := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	ef := parse(t, "-cache-dir", blocker, "-jobs", "2")
	eng := ef.Build(nil)
	if eng == nil {
		t.Fatal("unusable cache dir must degrade to a cache-less engine, not fail")
	}
	ef.Finish(eng)
}

// -resume is a deprecated no-op: the result cache already records
// which jobs finished, so it is accepted with or without -cache-dir.
func TestBuildAcceptsResumeAsNoOp(t *testing.T) {
	for name, args := range map[string][]string{
		"without cache dir": {"-resume"},
		"with cache dir":    {"-resume", "-cache-dir", t.TempDir()},
	} {
		t.Run(name, func(t *testing.T) {
			ef := parse(t, args...)
			eng := ef.Build(nil)
			if eng == nil {
				t.Fatal("no engine returned")
			}
			ef.Finish(eng)
		})
	}
}

func TestBuildWiresRobustnessOptions(t *testing.T) {
	dir := t.TempDir()
	ef := parse(t, "-cache-dir", dir, "-retry-backoff", "1ms", "-job-timeout", "5s", "-job-retries", "3")
	eng := ef.Build(nil)
	if eng == nil {
		t.Fatal("no engine returned")
	}
	ef.Finish(eng)
	// The cache must exist: Build opened it for the writable dir.
	if _, err := os.Stat(filepath.Join(dir, "objects")); err != nil {
		t.Errorf("cache not created: %v", err)
	}
}
