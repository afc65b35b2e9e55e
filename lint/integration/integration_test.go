// Package integration builds the phonocmap-lint multichecker and runs
// it the way CI does — `go vet -vettool` — over a deliberately broken
// module, asserting the violations actually fail the build.
package integration

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func buildLint(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "phonocmap-lint")
	cmd := exec.Command("go", "build", "-o", bin, "phonocmap/lint/cmd/phonocmap-lint")
	cmd.Dir = ".." // the lint module root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building phonocmap-lint: %v\n%s", err, out)
	}
	return bin
}

func TestLintFailsOnBrokenFixture(t *testing.T) {
	bin := buildLint(t)
	fixture, err := filepath.Abs(filepath.Join("testdata", "brokenfix"))
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", "vet", "-vettool="+bin, "./...")
	cmd.Dir = fixture
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("go vet -vettool passed on the broken fixture; output:\n%s", out)
	}
	// The determinism analyzer's unsorted map-range append.
	if want := "inside a map range"; !strings.Contains(string(out), want) {
		t.Errorf("vet output missing %q:\n%s", want, out)
	}
}

func TestLintCleanOnOwnModule(t *testing.T) {
	// The analyzers must hold no false positives against real idiomatic
	// code; the lint module itself is a convenient guinea pig (the main
	// module's cleanliness is CI's lint step).
	bin := buildLint(t)
	lintRoot, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", "vet", "-vettool="+bin, "./analysis/...", "./analyzers/...", "./benchparse/...")
	cmd.Dir = lintRoot
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet -vettool failed on the lint module itself: %v\n%s", err, out)
	}
}
