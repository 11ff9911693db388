package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs the command itself when a test re-executes this binary
// with SPELLCHECK_RUN_MAIN set, so tests see real exit codes and stderr.
func TestMain(m *testing.M) {
	if os.Getenv("SPELLCHECK_RUN_MAIN") == "1" {
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
	cmd.Env = append(os.Environ(), "SPELLCHECK_RUN_MAIN=1")
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

// TestRejectsBadFlags pins that an out-of-range window count or an
// unknown policy is a usage error (exit 2 with a message) before any
// simulation runs: no panic, and no silent fallback to FIFO.
func TestRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-windows", "1"}, "spellcheck: window count 1 outside"},
		{[]string{"-windows", "300"}, "spellcheck: window count 300 outside"},
		{[]string{"-policy", "prio"}, `spellcheck: unknown policy "prio"`},
	} {
		code, stderr := runMain(t, tc.args...)
		if code != 2 || !strings.HasPrefix(stderr, tc.want) || strings.Contains(stderr, "goroutine") {
			t.Errorf("%v: exit %d, stderr %q; want exit 2 with %q", tc.args, code, stderr, tc.want)
		}
	}
}

// TestAcceptsAnyCase pins that -scheme and -policy take their names in
// any case, as winsim's -policy does.
func TestAcceptsAnyCase(t *testing.T) {
	src := t.TempDir() + "/draft.tex"
	if err := os.WriteFile(src, []byte("Hello wrold\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-scheme", "snp", "-policy", "WS"},
		{"-scheme", "Sp", "-policy", "fifo"},
	} {
		if code, stderr := runMain(t, append(args, src)...); code != 0 {
			t.Errorf("%v: exit %d, stderr %q; want a clean run", args, code, stderr)
		}
	}
}
