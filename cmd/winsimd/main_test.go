package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs the daemon itself when a test re-executes this binary
// with WINSIMD_RUN_MAIN set, so tests see its real exit status and
// output.
func TestMain(m *testing.M) {
	if os.Getenv("WINSIMD_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// unbindable is a listen address whose port does not exist: a daemon
// that got as far as listening exits 1 at once instead of binding.
const unbindable = "127.0.0.1:99999"

// runDaemon re-executes the daemon with args on the unbindable address
// and returns its exit status and standard error.
func runDaemon(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-addr", unbindable}, args...)...)
	cmd.Env = append(os.Environ(), "WINSIMD_RUN_MAIN=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) {
		t.Fatalf("winsimd %s ended with %v, want a nonzero exit\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return exit.ExitCode(), stderr.String()
}

// TestNegativeFlagsRejected pins that every count and duration flag
// refuses a negative value with exit 2 and one line naming the flag,
// before the daemon listens: a negative -maxqueue used to turn off the
// pool's only admission bound, -workers, -cachesize, -timeout and
// -reqtimeout to mean their default or none, and -drain to be a budget
// already spent. A daemon that listened would exit 1 on the unbindable
// address instead, which the control case pins.
func TestNegativeFlagsRejected(t *testing.T) {
	if code, msg := runDaemon(t); code != 1 || !strings.Contains(msg, "invalid port") {
		t.Fatalf("control run exited %d with %q, want 1 from the listen", code, msg)
	}
	for _, c := range []struct{ flag, value string }{
		{"workers", "-1"}, {"cachesize", "-2"}, {"maxqueue", "-5"},
		{"timeout", "-1s"}, {"reqtimeout", "-1ms"}, {"drain", "-30s"},
	} {
		t.Run(c.flag, func(t *testing.T) {
			code, msg := runDaemon(t, "-"+c.flag, c.value)
			if code != 2 {
				t.Fatalf("-%s %s exited %d, want 2\n%s", c.flag, c.value, code, msg)
			}
			if strings.Count(msg, "\n") != 1 || !strings.Contains(msg, "-"+c.flag+" "+c.value) {
				t.Errorf("stderr %q: want one line naming -%s %s", msg, c.flag, c.value)
			}
		})
	}
}
