package fault

import (
	"fmt"
	"math/rand"
)

// Point names a chaos injection site. Each point is consulted (Poll)
// at its natural place in the simulation; an enabled point fires its
// armed hook at deterministic pseudo-random intervals.
type Point int

const (
	// PointPreempt yields the running thread at a safe point even
	// though it did not block — adversarial preemption. Perturbs the
	// schedule and the cycle counts, but never the functional output.
	PointPreempt Point = iota
	// PointSpuriousTrap executes a spurious save/restore pair on the
	// running thread, driving the real overflow/underflow trap handlers
	// at adversarial call depths. Charges real cycles.
	PointSpuriousTrap
	// PointFlushReload forcibly spills every resident window of the
	// running thread to its memory save area and reloads it — a forced
	// window flush that is observationally neutral (no cycles, no
	// counters, identical registers), so it may run under golden-file
	// assertions.
	PointFlushReload

	// NumPoints bounds the Point values.
	NumPoints
)

// String names the point.
func (p Point) String() string {
	switch p {
	case PointPreempt:
		return "preempt"
	case PointSpuriousTrap:
		return "spurious-trap"
	case PointFlushReload:
		return "flush-reload"
	}
	return fmt.Sprintf("Point(%d)", int(p))
}

// Injector perturbs execution at registered points, driven by a seeded
// deterministic RNG: the same seed and the same Poll sequence produce
// the same perturbation schedule, so chaos runs are reproducible.
//
// Layers Arm the hooks (the kernel arms the preemption and window
// hooks); tests and tools Enable the points they want with a mean
// firing period in consultations. An Injector is not safe for
// concurrent use — it belongs to exactly one simulation, which is
// single-threaded by construction.
type Injector struct {
	rng *rand.Rand

	period   [NumPoints]uint64 // 0 = disabled
	next     [NumPoints]uint64 // consult count of the next firing
	consults [NumPoints]uint64
	fired    [NumPoints]uint64
	hooks    [NumPoints]func()

	// OnFire, when non-nil, observes every firing (after the hook ran);
	// the chaos suite uses it to verify invariants at each perturbation.
	OnFire func(Point)
}

// NewInjector returns an injector with every point disabled, drawing
// its schedule from the given seed.
func NewInjector(seed int64) *Injector {
	return &Injector{rng: rand.New(rand.NewSource(seed))}
}

// Enable arms point p to fire about once per meanPeriod consultations
// (0 disables it again).
func (in *Injector) Enable(p Point, meanPeriod uint64) {
	in.period[p] = meanPeriod
	if meanPeriod > 0 {
		in.next[p] = in.consults[p] + 1 + uint64(in.rng.Int63n(int64(meanPeriod)))
	}
}

// Arm installs the hook that performs point p's perturbation. Layers
// call this when chaos is attached; a point with no hook never fires.
func (in *Injector) Arm(p Point, hook func()) { in.hooks[p] = hook }

// Poll consults point p, firing its hook when the schedule says so.
// Poll must be called from a context where the perturbation is safe
// (the points document theirs).
func (in *Injector) Poll(p Point) {
	in.consults[p]++
	if in.period[p] == 0 || in.hooks[p] == nil || in.consults[p] < in.next[p] {
		return
	}
	in.next[p] = in.consults[p] + 1 + uint64(in.rng.Int63n(int64(in.period[p])))
	in.fired[p]++
	in.hooks[p]()
	if in.OnFire != nil {
		in.OnFire(p)
	}
}

// Fired reports how many times point p has fired.
func (in *Injector) Fired(p Point) uint64 { return in.fired[p] }

// TotalFired reports the firings across all points.
func (in *Injector) TotalFired() uint64 {
	var n uint64
	for _, f := range in.fired {
		n += f
	}
	return n
}
