package simsvc

import (
	"os"
	"testing"

	"cyclicwin/internal/core"
)

// TestMain arms the core invariant audit for every service test: each
// job the pool and server run is re-verified after every window
// operation.
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
