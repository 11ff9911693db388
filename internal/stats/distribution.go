package stats

import (
	"encoding/json"
	"math"
	"slices"
	"sort"
)

// Distribution records an exact histogram of small-integer observations
// (context-switch costs take only a handful of distinct values), so
// worst-case and quantile figures are exact. The distinct values are
// kept ascending, with their counts in a parallel slice, so recording a
// sample is a short search and no reader sorts. The zero value is ready
// to use.
type Distribution struct {
	values []uint64
	counts []uint64
	n      uint64
	sum    uint64
}

// Observe adds one sample.
func (d *Distribution) Observe(v uint64) { d.ObserveN(v, 1) }

// ObserveN adds count identical samples of value v in one step — how a
// serialised histogram is rebuilt without replaying every observation.
func (d *Distribution) ObserveN(v, count uint64) {
	if count == 0 {
		return
	}
	d.add(v, count)
	d.n += count
	d.sum += v * count
}

// scanValues is how many of the smallest values add compares one by
// one before it searches the rest by halves.
const scanValues = 8

// add adds count to value v's bucket, inserting the bucket in order.
// A switch-cost histogram usually holds a handful of values, which a
// short scan finds sooner than a binary search; a longer one (a
// 256-window NS file can switch at 256 distinct costs) is searched by
// halves past its first scanValues values, so the worst case stays
// logarithmic.
func (d *Distribution) add(v, count uint64) {
	i, n := 0, min(len(d.values), scanValues)
	for i < n && d.values[i] < v {
		i++
	}
	if i == scanValues {
		j, _ := slices.BinarySearch(d.values[scanValues:], v)
		i += j
	}
	if found := i < len(d.values) && d.values[i] == v; !found {
		d.values = slices.Insert(d.values, i, v)
		d.counts = slices.Insert(d.counts, i, 0)
	}
	d.counts[i] += count
}

// N reports the number of samples.
func (d *Distribution) N() uint64 { return d.n }

// Mean reports the sample mean (0 with no samples).
func (d *Distribution) Mean() float64 {
	if d.n == 0 {
		return 0
	}
	return float64(d.sum) / float64(d.n)
}

// Max reports the largest observation (0 with no samples).
func (d *Distribution) Max() uint64 {
	if len(d.values) == 0 {
		return 0
	}
	return d.values[len(d.values)-1]
}

// Min reports the smallest observation (0 with no samples).
func (d *Distribution) Min() uint64 {
	if len(d.values) == 0 {
		return 0
	}
	return d.values[0]
}

// Quantile reports the smallest value v such that at least q (0..1] of
// the samples are <= v. Quantile(1) is Max.
func (d *Distribution) Quantile(q float64) uint64 {
	if d.n == 0 {
		return 0
	}
	// "At least q of the samples" needs ceil(q*n) samples: with 3
	// samples, Quantile(0.5) must cover 2 of them, not the truncated 1.
	need := uint64(math.Ceil(q * float64(d.n)))
	if need < 1 {
		need = 1
	}
	if need > d.n {
		need = d.n
	}
	var seen uint64
	for i, c := range d.counts {
		seen += c
		if seen >= need {
			return d.values[i]
		}
	}
	return d.Max()
}

// Values returns the distinct observations in ascending order with
// their counts.
func (d *Distribution) Values() (values []uint64, counts []uint64) {
	return slices.Clone(d.values), slices.Clone(d.counts)
}

// Merge adds every sample of o into d.
func (d *Distribution) Merge(o *Distribution) {
	if o == nil || o.n == 0 {
		return
	}
	// A self-merge finds every value, so each bucket doubles in place.
	for i, v := range o.values {
		d.add(v, o.counts[i])
	}
	d.n += o.n
	d.sum += o.sum
}

// Clone returns an independent copy of d.
func (d *Distribution) Clone() Distribution {
	return Distribution{values: slices.Clone(d.values), counts: slices.Clone(d.counts), n: d.n, sum: d.sum}
}

// distributionJSON is the wire form of a Distribution: the distinct
// observations in ascending order with their counts, so equal
// distributions always serialise to identical bytes.
type distributionJSON struct {
	Values []uint64 `json:"values,omitempty"`
	Counts []uint64 `json:"counts,omitempty"`
}

// MarshalJSON serialises the histogram as sorted value/count arrays.
// Without it a Distribution (all fields unexported) would encode as {}
// and per-job counters would silently lose the switch-cost histogram.
func (d Distribution) MarshalJSON() ([]byte, error) {
	return json.Marshal(distributionJSON{Values: d.values, Counts: d.counts})
}

// UnmarshalJSON rebuilds the histogram from its wire form.
func (d *Distribution) UnmarshalJSON(data []byte) error {
	var w distributionJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*d = Distribution{}
	for i, v := range w.Values {
		if i < len(w.Counts) {
			d.ObserveN(v, w.Counts[i])
		}
	}
	return nil
}

// Burst describes one scheduling burst of a thread: the range of stack
// depths (infinite-window identities) its procedures touched between
// being dispatched and being suspended. Max-Min+1 is the paper's
// "window activity per thread" for that burst (Section 5).
type Burst struct {
	Thread   int
	Min, Max int
}

// Activity reports the burst's window activity.
func (b Burst) Activity() int { return b.Max - b.Min + 1 }

// ActivityRecorder captures bursts so the paper's Section 5 quantities
// can be computed after a run.
type ActivityRecorder struct {
	Bursts []Burst
}

// Record appends one burst.
func (r *ActivityRecorder) Record(b Burst) { r.Bursts = append(r.Bursts, b) }

// MeanPerThread reports the average window activity per scheduling
// burst — the paper's "window activity per thread".
func (r *ActivityRecorder) MeanPerThread() float64 {
	if len(r.Bursts) == 0 {
		return 0
	}
	sum := 0
	for _, b := range r.Bursts {
		sum += b.Activity()
	}
	return float64(sum) / float64(len(r.Bursts))
}

// TotalActivity reports the paper's "total window activity" for periods
// of the given number of consecutive bursts: within each period, each
// thread contributes the union of the depth ranges it touched (a
// repeatedly-used window counts once); threads are disjoint, so the
// total is the sum. The mean over all full periods is returned.
func (r *ActivityRecorder) TotalActivity(periodBursts int) float64 {
	if periodBursts <= 0 || len(r.Bursts) < periodBursts {
		return 0
	}
	var totals []int
	for start := 0; start+periodBursts <= len(r.Bursts); start += periodBursts {
		type span struct{ min, max int }
		perThread := make(map[int][]span)
		for _, b := range r.Bursts[start : start+periodBursts] {
			perThread[b.Thread] = append(perThread[b.Thread], span{b.Min, b.Max})
		}
		total := 0
		for _, spans := range perThread {
			// Union of depth intervals.
			sort.Slice(spans, func(i, j int) bool { return spans[i].min < spans[j].min })
			covered, end := 0, -1
			for _, s := range spans {
				lo := s.min
				if lo <= end {
					lo = end + 1
				}
				if s.max >= lo {
					covered += s.max - lo + 1
					end = s.max
				} else if s.max > end {
					end = s.max
				}
			}
			total += covered
		}
		totals = append(totals, total)
	}
	sum := 0
	for _, t := range totals {
		sum += t
	}
	return float64(sum) / float64(len(totals))
}

// Concurrency reports how many distinct threads were scheduled at least
// once per period of the given number of bursts, averaged over periods
// (the paper's "concurrency").
func (r *ActivityRecorder) Concurrency(periodBursts int) float64 {
	if periodBursts <= 0 || len(r.Bursts) < periodBursts {
		return 0
	}
	var periods, sum int
	for start := 0; start+periodBursts <= len(r.Bursts); start += periodBursts {
		seen := make(map[int]bool)
		for _, b := range r.Bursts[start : start+periodBursts] {
			seen[b.Thread] = true
		}
		sum += len(seen)
		periods++
	}
	return float64(sum) / float64(periods)
}
