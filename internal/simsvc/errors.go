package simsvc

import (
	"context"
	"errors"
	"net/http"
)

// Sentinel errors for the failure classes a caller can meaningfully
// react to. Wrap sites use %w, so errors.Is works through any amount
// of context added along the way.
var (
	// ErrTimeout marks a job abandoned by the per-job execution
	// watchdog: the simulation exceeded PoolConfig.JobTimeout.
	ErrTimeout = errors.New("simsvc: job timed out")
	// ErrPoolSaturated marks a submission rejected because the queue
	// already holds PoolConfig.MaxQueue jobs. The rejected spec was NOT
	// enqueued, but in a batch the specs submitted before it were;
	// retry after backing off.
	ErrPoolSaturated = errors.New("simsvc: pool saturated")
	// ErrGuestFault marks a simulation that failed deterministically
	// inside the guest: a typed guest fault, a deadlock diagnostic or a
	// cycle-budget exhaustion. Retrying the identical spec will fail
	// the identical way.
	ErrGuestFault = errors.New("simsvc: guest fault")
)

// statusCodeOf maps a pool or job error onto the HTTP status the API
// serves for it. The classes are deliberately distinct so clients can
// tell "back off and retry" (429), "gave up waiting" (504), "your
// program is broken" (422) and "the service is broken" (500) apart.
func statusCodeOf(err error) int {
	switch {
	case err == nil:
		return http.StatusOK
	case errors.Is(err, ErrPoolSaturated):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrTimeout),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	case errors.Is(err, ErrGuestFault):
		return http.StatusUnprocessableEntity
	default:
		return http.StatusInternalServerError
	}
}
