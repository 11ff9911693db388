package spell

import (
	"os"
	"testing"

	"cyclicwin/internal/core"
)

// TestMain arms the core invariant audit for every spell pipeline
// test: the pipeline threads are re-verified after every window
// operation.
func TestMain(m *testing.M) {
	core.SetInvariantChecks(true)
	os.Exit(m.Run())
}
