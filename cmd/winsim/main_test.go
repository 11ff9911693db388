package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
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

// TestProfilesWrittenOnFailure pins that a run which fails on its
// cycle budget, exiting 1, still writes its CPU and heap profiles:
// non-empty and gzip-compressed, as runtime/pprof writes them.
func TestProfilesWrittenOnFailure(t *testing.T) {
	dir := t.TempDir()
	cpu, heap := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "heap.prof")
	cmd := exec.Command(os.Args[0], "-exp", "fig11", "-windows", "4", "-maxcycles", "1000",
		"-cpuprofile", cpu, "-memprofile", heap)
	cmd.Env = append(os.Environ(), "WINSIM_RUN_MAIN=1")
	var exit *exec.ExitError
	if err := cmd.Run(); !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("over-budget run ended with %v, want exit status 1", err)
	}
	for _, path := range []string{cpu, heap} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
			t.Errorf("%s: %d bytes, not a gzip-compressed profile", filepath.Base(path), len(b))
		}
	}
}

// TestQuantumReachesSerialRunner pins that -quantum applies on the
// serial runner -maxcycles selects: the figure must equal the one the
// worker pool prints, where -quantum always applied.
func TestQuantumReachesSerialRunner(t *testing.T) {
	base := []string{"-exp", "fig11", "-windows", "4", "-quantum", "200"}
	budget := runMain(t, append(base, "-maxcycles", "100000000000")...)
	pooled := runMain(t, base...)
	if budget != pooled {
		t.Fatalf("-quantum 200 with -maxcycles printed\n%s\nthrough the pool\n%s", budget, pooled)
	}
	if plain := runMain(t, "-exp", "fig11", "-windows", "4"); plain == pooled {
		t.Fatal("-quantum 200 left the figure unchanged; the test cannot tell whether it was applied")
	}
}

// TestPolicyFlagAnyCase pins that -policy parses through
// sched.ParsePolicy after upper-casing: -policy ws prints exactly what
// -policy WS does, and -policy fifo is applied too (fig15 is a
// working-set figure, so FIFO changes it).
func TestPolicyFlagAnyCase(t *testing.T) {
	args := func(policy string) []string {
		return []string{"-exp", "fig15", "-windows", "4", "-policy", policy}
	}
	upper := runMain(t, args("WS")...)
	if lower := runMain(t, args("ws")...); lower != upper {
		t.Fatalf("-policy ws printed\n%s\n-policy WS printed\n%s", lower, upper)
	}
	if fifo := runMain(t, args("fifo")...); fifo == upper {
		t.Fatal("-policy fifo printed the working-set figure; the lower-case policy was not applied")
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

// TestNegativeCountsRejected pins that every count flag refuses a
// negative value with exit 2 and one line naming the flag, before any
// work: -checklen -5 used to panic in the checker, -checkruns -2 to
// report two negative runs as passing, and -workers -1 to run as 0.
func TestNegativeCountsRejected(t *testing.T) {
	for flagName, args := range map[string][]string{
		"checklen":   {"-check", "-checklen", "-5", "-checkdepth", "0", "-checkruns", "1"},
		"checkruns":  {"-check", "-checkruns", "-2"},
		"checkdepth": {"-check", "-checkdepth", "-1"},
		"workers":    {"-exp", "fig11", "-windows", "4", "-workers", "-1"},
	} {
		t.Run(flagName, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], args...)
			cmd.Env = append(os.Environ(), "WINSIM_RUN_MAIN=1")
			var stderr strings.Builder
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("winsim %s ended with %v, want exit status 2\n%s", strings.Join(args, " "), err, stderr.String())
			}
			msg := stderr.String()
			if strings.Count(msg, "\n") != 1 || !strings.Contains(msg, "-"+flagName+" ") {
				t.Errorf("stderr %q: want one line naming -%s", msg, flagName)
			}
			if len(out) != 0 {
				t.Errorf("printed %q before refusing the flag", out)
			}
		})
	}
}
