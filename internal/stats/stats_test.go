package stats

import (
	"testing"
	"testing/quick"
)

func TestDistributionBasics(t *testing.T) {
	var d Distribution
	if d.Mean() != 0 || d.Max() != 0 || d.Quantile(0.5) != 0 {
		t.Error("empty distribution should report zeros")
	}
	for _, v := range []uint64{93, 93, 93, 136, 224} {
		d.Observe(v)
	}
	if d.N() != 5 {
		t.Errorf("N = %d", d.N())
	}
	if got := d.Mean(); got != (93*3+136+224)/5.0 {
		t.Errorf("Mean = %g", got)
	}
	if d.Min() != 93 || d.Max() != 224 {
		t.Errorf("Min/Max = %d/%d", d.Min(), d.Max())
	}
	if got := d.Quantile(0.5); got != 93 {
		t.Errorf("p50 = %d, want 93", got)
	}
	if got := d.Quantile(0.8); got != 136 {
		t.Errorf("p80 = %d, want 136", got)
	}
	if got := d.Quantile(1); got != 224 {
		t.Errorf("p100 = %d, want 224", got)
	}
	values, counts := d.Values()
	if len(values) != 3 || values[0] != 93 || counts[0] != 3 {
		t.Errorf("Values = %v %v", values, counts)
	}
}

func TestDistributionQuantileProperty(t *testing.T) {
	prop := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		var d Distribution
		max := uint64(0)
		for _, v := range raw {
			d.Observe(uint64(v))
			if uint64(v) > max {
				max = uint64(v)
			}
		}
		// Quantiles are monotone and bounded by min/max.
		q1, q5, q9 := d.Quantile(0.1), d.Quantile(0.5), d.Quantile(0.9)
		return q1 <= q5 && q5 <= q9 && q9 <= max && d.Quantile(1) == max && d.Min() <= q1
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestBurstActivity(t *testing.T) {
	b := Burst{Thread: 1, Min: 3, Max: 7}
	if b.Activity() != 5 {
		t.Errorf("Activity = %d, want 5", b.Activity())
	}
}

func TestActivityRecorderPerThread(t *testing.T) {
	r := &ActivityRecorder{}
	r.Record(Burst{0, 0, 2}) // 3 windows
	r.Record(Burst{1, 5, 5}) // 1 window
	if got := r.MeanPerThread(); got != 2 {
		t.Errorf("MeanPerThread = %g, want 2", got)
	}
}

func TestActivityRecorderTotal(t *testing.T) {
	r := &ActivityRecorder{}
	// Period 1: thread 0 touches depths 0..2 twice (counted once) and
	// 4..5; thread 1 touches 0..1.
	r.Record(Burst{0, 0, 2})
	r.Record(Burst{0, 0, 2})
	r.Record(Burst{0, 4, 5})
	r.Record(Burst{1, 0, 1})
	// Union for thread 0: {0,1,2,4,5} = 5; thread 1: 2. Total 7.
	if got := r.TotalActivity(4); got != 7 {
		t.Errorf("TotalActivity = %g, want 7", got)
	}
	if got := r.Concurrency(4); got != 2 {
		t.Errorf("Concurrency = %g, want 2", got)
	}
}

func TestActivityRecorderOverlappingSpans(t *testing.T) {
	r := &ActivityRecorder{}
	r.Record(Burst{0, 0, 10})
	r.Record(Burst{0, 5, 20}) // overlap: union 0..20 = 21
	r.Record(Burst{0, 2, 3})  // nested: no change
	if got := r.TotalActivity(3); got != 21 {
		t.Errorf("TotalActivity = %g, want 21", got)
	}
}

func TestActivityRecorderPeriods(t *testing.T) {
	r := &ActivityRecorder{}
	r.Record(Burst{0, 0, 0}) // period 1: 1 window
	r.Record(Burst{0, 0, 2}) // period 2: 3 windows
	if got := r.TotalActivity(1); got != 2 {
		t.Errorf("mean over two periods = %g, want 2", got)
	}
	if r.TotalActivity(0) != 0 || r.TotalActivity(5) != 0 {
		t.Error("degenerate periods should report 0")
	}
}

func TestTrapProbabilityAndAvgSwitch(t *testing.T) {
	c := Counters{Saves: 60, Restores: 40, OverflowTraps: 7, UnderflowTraps: 3,
		Switches: 4, SwitchCycles: 600}
	if got := c.TrapProbability(); got != 0.1 {
		t.Errorf("TrapProbability = %g", got)
	}
	if got := c.AvgSwitchCycles(); got != 150 {
		t.Errorf("AvgSwitchCycles = %g", got)
	}
	var zero Counters
	if zero.TrapProbability() != 0 || zero.AvgSwitchCycles() != 0 {
		t.Error("zero counters should report 0 rates")
	}
}

// TestDistributionMatchesCountModel checks the histogram's buckets
// against a map of counts: for any samples, in any order, Values
// returns every distinct sample once, ascending, with its count. Up to
// 300 distinct values take add past its linear scan into the binary
// search, and few take it only through the scan.
func TestDistributionMatchesCountModel(t *testing.T) {
	prop := func(raw []uint16, few bool) bool {
		var d Distribution
		model := map[uint64]uint64{}
		for _, r := range raw {
			v := uint64(r % 300)
			if few {
				v %= scanValues
			}
			d.Observe(v)
			model[v]++
		}
		values, counts := d.Values()
		if len(values) != len(model) || d.N() != uint64(len(raw)) {
			return false
		}
		for i, v := range values {
			if i > 0 && values[i-1] >= v || counts[i] != model[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
