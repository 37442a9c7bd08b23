package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestRunErrorKeepsProfiles pins that a failing invocation still stops the
// CPU profiler and writes both profiles: run returns its error instead of
// exiting, so the deferred profile writers run.
func TestRunErrorKeepsProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	err := run([]string{"-scenario", "nope", "-scale", "tiny", "-cpuprofile", cpu, "-memprofile", mem})
	if err == nil {
		t.Fatal("unknown scenario returned no error")
	}
	for _, prof := range []string{cpu, mem} {
		fi, statErr := os.Stat(prof)
		if statErr != nil {
			t.Fatal(statErr)
		}
		if fi.Size() == 0 {
			t.Errorf("%s is empty after an error exit", filepath.Base(prof))
		}
	}
}
