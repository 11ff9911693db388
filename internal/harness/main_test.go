package harness

import (
	"os"
	"testing"

	"cyclicwin/internal/core"
)

// TestMain arms the core invariant audit for every harness test,
// including the fig11–15 golden runs: the goldens must stay
// byte-identical with the audit on, pinning that invariant checking
// never perturbs simulation results.
func TestMain(m *testing.M) {
	core.SetInvariantChecks(true)
	os.Exit(m.Run())
}

// benchWithoutAudit turns the audit off until the benchmark ends, so
// the benchmark times the simulator rather than the audit's
// per-operation verify.
func benchWithoutAudit(b *testing.B) {
	audit := core.InvariantChecksEnabled()
	core.SetInvariantChecks(false)
	b.Cleanup(func() { core.SetInvariantChecks(audit) })
}
