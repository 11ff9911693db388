package stream

import (
	"os"
	"testing"

	"cyclicwin/internal/core"
)

// TestMain arms the core invariant audit for every stream test: the
// producer and consumer threads a stream hands bytes between are
// re-verified after every window operation.
func TestMain(m *testing.M) {
	core.SetInvariantChecks(true)
	os.Exit(m.Run())
}
