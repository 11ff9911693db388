package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs the command itself when a test re-executes this binary
// with ASMRUN_RUN_MAIN set, so tests see real exit codes and stderr.
func TestMain(m *testing.M) {
	if os.Getenv("ASMRUN_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain executes the command with args and returns its exit code and
// standard error.
func runMain(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "ASMRUN_RUN_MAIN=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return exit.ExitCode(), stderr.String()
	}
	if err != nil {
		t.Fatal(err)
	}
	return 0, stderr.String()
}

// TestWindowsOutOfRange pins that a window count the register file
// cannot build is a usage error (exit 2 with a message), not a panic.
func TestWindowsOutOfRange(t *testing.T) {
	prog := t.TempDir() + "/prog.s"
	if err := os.WriteFile(prog, []byte("start:\n\tmov 7, %o0\n\tta 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"1", "300"} {
		code, stderr := runMain(t, "-windows", w, prog)
		if code != 2 || !strings.HasPrefix(stderr, "asmrun: window count "+w+" outside") || strings.Contains(stderr, "goroutine") {
			t.Errorf("-windows %s: exit %d, stderr %q; want exit 2 naming the count", w, code, stderr)
		}
	}
	if code, stderr := runMain(t, "-windows", "2", prog); code != 0 {
		t.Errorf("-windows 2: exit %d, stderr %q; want a clean run", code, stderr)
	}
}

// TestUnknownEntryLabel pins that an -entry naming a label the program
// does not define is a usage error (exit 2 naming the label), not a
// silent run from the origin; left at its default, -entry still runs a
// program without start: from its origin.
func TestUnknownEntryLabel(t *testing.T) {
	dir := t.TempDir()
	prog := dir + "/prog.s"
	src := "start:\n\tmov 7, %o0\n\tta 0\nother:\n\tmov 9, %o0\n\tta 0\n"
	if err := os.WriteFile(prog, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	code, stderr := runMain(t, "-entry", "othr", prog)
	if code != 2 || !strings.HasPrefix(stderr, `asmrun: entry label "othr" not defined`) {
		t.Errorf("-entry othr: exit %d, stderr %q; want exit 2 naming the label", code, stderr)
	}
	if code, stderr := runMain(t, "-entry", "other", prog); code != 0 {
		t.Errorf("-entry other: exit %d, stderr %q; want a clean run", code, stderr)
	}
	noStart := dir + "/nostart.s"
	if err := os.WriteFile(noStart, []byte("\tmov 7, %o0\n\tta 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, stderr := runMain(t, noStart); code != 0 {
		t.Errorf("default -entry without start:: exit %d, stderr %q; want a run from the origin", code, stderr)
	}
}
