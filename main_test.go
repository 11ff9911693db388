package cyclicwin

import (
	"os"
	"testing"

	"cyclicwin/internal/core"
)

// TestMain arms the core invariant audit for every test and example
// of the public API, which drive all three schemes through the same
// kernels the figures use.
func TestMain(m *testing.M) {
	core.SetInvariantChecks(true)
	os.Exit(m.Run())
}

// benchWithoutAudit turns the audit off until the benchmark ends, so
// the benchmark times the simulator rather than the audit.
func benchWithoutAudit(b *testing.B) {
	audit := core.InvariantChecksEnabled()
	core.SetInvariantChecks(false)
	b.Cleanup(func() { core.SetInvariantChecks(audit) })
}
