package workload

import (
	"os"
	"testing"

	"cyclicwin/internal/core"
)

// TestMain arms the core invariant audit for every workload test,
// including ForkJoin, whose threads are spawned and joined by running
// guests.
func TestMain(m *testing.M) {
	core.SetInvariantChecks(true)
	os.Exit(m.Run())
}
