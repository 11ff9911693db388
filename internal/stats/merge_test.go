package stats

import (
	"encoding/json"
	"testing"
)

// TestMergeOverlappingBuckets pins Merge when the two histograms share
// exact buckets: overlapping values must add their counts, not replace
// them, and every derived statistic must equal the one computed from
// observing the union directly.
func TestMergeOverlappingBuckets(t *testing.T) {
	var a, b, direct Distribution
	for _, v := range []uint64{2, 2, 5, 9, 9, 9} {
		a.Observe(v)
		direct.Observe(v)
	}
	for _, v := range []uint64{2, 5, 5, 9, 40} {
		b.Observe(v)
		direct.Observe(v)
	}

	m := a.Clone()
	m.Merge(&b)

	if m.N() != direct.N() || m.Mean() != direct.Mean() || m.Min() != direct.Min() || m.Max() != direct.Max() {
		t.Fatalf("merged stats n=%d mean=%g min=%d max=%d differ from direct n=%d mean=%g min=%d max=%d",
			m.N(), m.Mean(), m.Min(), m.Max(), direct.N(), direct.Mean(), direct.Min(), direct.Max())
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 1} {
		if got, want := m.Quantile(q), direct.Quantile(q); got != want {
			t.Errorf("Quantile(%g) = %d after merge, want %d", q, got, want)
		}
	}
	values, counts := m.Values()
	wantValues := []uint64{2, 5, 9, 40}
	wantCounts := []uint64{3, 3, 4, 1}
	if len(values) != len(wantValues) {
		t.Fatalf("merged values %v, want %v", values, wantValues)
	}
	for i := range wantValues {
		if values[i] != wantValues[i] || counts[i] != wantCounts[i] {
			t.Fatalf("merged bucket %d = %d×%d, want %d×%d",
				i, values[i], counts[i], wantValues[i], wantCounts[i])
		}
	}

	// Merge order must not matter.
	m2 := b.Clone()
	m2.Merge(&a)
	j1, _ := json.Marshal(m)
	j2, _ := json.Marshal(m2)
	if string(j1) != string(j2) {
		t.Fatalf("merge is order-sensitive:\n a+b %s\n b+a %s", j1, j2)
	}

	// The sources must be untouched.
	if a.N() != 6 || b.N() != 5 {
		t.Fatalf("merge mutated a source: a.N=%d b.N=%d", a.N(), b.N())
	}
}

// TestMergeIntoEmptyAndSelf pins the edge cases: merging into a zero
// distribution copies everything, merging an empty one changes nothing,
// and self-merge doubles every bucket without corrupting the histogram
// (the receiver and argument are one histogram there).
func TestMergeIntoEmptyAndSelf(t *testing.T) {
	var src Distribution
	for _, v := range []uint64{1, 1, 7} {
		src.Observe(v)
	}

	var empty Distribution
	empty.Merge(&src)
	if empty.N() != 3 || empty.Mean() != 3 || empty.Max() != 7 {
		t.Fatalf("merge into empty: n=%d mean=%g max=%d", empty.N(), empty.Mean(), empty.Max())
	}

	before, _ := json.Marshal(src)
	var zero Distribution
	src.Merge(&zero)
	after, _ := json.Marshal(src)
	if string(before) != string(after) {
		t.Fatalf("merging an empty distribution changed the receiver: %s → %s", before, after)
	}

	src.Merge(&src)
	if src.N() != 6 || src.Max() != 7 || src.Mean() != 3 {
		t.Fatalf("self-merge: n=%d max=%d mean=%g, want 6/7/3", src.N(), src.Max(), src.Mean())
	}
	values, counts := src.Values()
	if len(values) != 2 || counts[0] != 4 || counts[1] != 2 {
		t.Fatalf("self-merge buckets: %v × %v, want [1 7] × [4 2]", values, counts)
	}
}
