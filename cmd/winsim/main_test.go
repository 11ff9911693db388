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

// TestExpAllGolden pins the standard output of -exp all byte for byte:
// every experiment of the catalog at quick sizes, the ablation,
// crossover and T3 figures included, which the fig11-15 golden of
// internal/harness does not cover. Regenerate testdata/exp_all.golden
// with UPDATE_GOLDEN=1 only for an intentional model change, and say
// so in the commit.
func TestExpAllGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment; skipped in -short mode")
	}
	const golden = "testdata/exp_all.golden"
	got := runMain(t, "-exp", "all")
	if os.Getenv("UPDATE_GOLDEN") == "1" {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatalf("updating golden file: %v", err)
		}
		t.Log("golden file regenerated; review the diff and mention the model change in the commit")
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file: %v", err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("-exp all diverged from %s at line %d:\n got:  %s\n want: %s", golden, i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("-exp all printed %d lines, %s has %d", len(gotLines), golden, len(wantLines))
}
