package cloudalloc

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestBenchmarkModuleBuilds compiles the nested benchmark module the way
// benchmark/run.sh does. The root ./... patterns skip that module, so a
// renamed or re-signed identifier it names would otherwise pass every
// root check and fail only when the benchmark runs.
func TestBenchmarkModuleBuilds(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	cmd := exec.Command(goBin, "build", "-o", filepath.Join(t.TempDir(), "benchmark"), ".")
	cmd.Dir = "benchmark"
	cmd.Env = append(os.Environ(), "GOFLAGS=-buildvcs=false", "GOWORK=off", "GOTOOLCHAIN=local")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build in benchmark/: %v\n%s", err, out)
	}
}
