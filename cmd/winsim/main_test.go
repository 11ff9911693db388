package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs the command itself when a test re-executes this binary
// with WINSIM_RUN_MAIN set, so tests see its real output.
func TestMain(m *testing.M) {
	if os.Getenv("WINSIM_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain executes the command with args and returns its standard
// output, failing the test on a nonzero exit.
func runMain(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "WINSIM_RUN_MAIN=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("winsim %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return string(out)
}

// TestQuantumReachesSerialRunner pins that -quantum applies on the
// serial runner -maxcycles selects: the figure must equal the one
// -parallel=false prints, where -quantum always applied.
func TestQuantumReachesSerialRunner(t *testing.T) {
	base := []string{"-exp", "fig11", "-windows", "4", "-quantum", "200"}
	budget := runMain(t, append(base, "-maxcycles", "100000000000")...)
	serial := runMain(t, append(base, "-parallel=false")...)
	if budget != serial {
		t.Fatalf("-quantum 200 with -maxcycles printed\n%s\nwith -parallel=false\n%s", budget, serial)
	}
	if plain := runMain(t, "-exp", "fig11", "-windows", "4", "-parallel=false"); plain == serial {
		t.Fatal("-quantum 200 left the figure unchanged; the test cannot tell whether it was applied")
	}
}
