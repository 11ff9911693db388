package harness

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"cyclicwin/internal/core"
	"cyclicwin/internal/sched"
)

// replaySizes keep the replay-versus-live grid small enough for -race.
var replaySizes = Sizes{Draft: 600, Dict: 901}

// resetScheduleStore empties the corpus cache and its schedules for a
// test, and again after it.
func resetScheduleStore(t *testing.T) {
	reset := func() {
		workloadsMu.Lock()
		workloads = map[Sizes]*workload{}
		scheduleBytes = 0
		workloadsMu.Unlock()
	}
	reset()
	t.Cleanup(reset)
}

// checkScheduleBytes requires the store's byte count to be the sum of
// its entries' and within maxScheduleBytes.
func checkScheduleBytes(t *testing.T) {
	t.Helper()
	workloadsMu.Lock()
	defer workloadsMu.Unlock()
	sum := 0
	for _, w := range workloads {
		sum += w.scheduleBytes
	}
	if sum != scheduleBytes || scheduleBytes > maxScheduleBytes {
		t.Fatalf("store holds %d schedule bytes, its entries %d, bound %d", scheduleBytes, sum, maxScheduleBytes)
	}
}

// TestReplayMatchesLive pins the replay's exactness: for every
// behaviour, scheme, window count and machine configuration, under FIFO
// and, on NS, under the working-set policy, the replayed cell's whole
// Result — cycles, every counter and the switch-cost distribution,
// per-thread suspensions and the output checksum — equals the live
// run's, with the audit armed (TestMain). An invalid behaviour fails
// with the same error on both paths.
func TestReplayMatchesLive(t *testing.T) {
	configs := []struct {
		name string
		cfg  core.Config
	}{
		{"default", core.Config{}},
		{"search", core.Config{SearchAlloc: true}},
		{"hw", core.Config{HWAssist: true}},
		{"transfer2", core.Config{TrapTransfer: 2}},
	}
	cells := []struct {
		scheme core.Scheme
		policy sched.Policy
	}{
		{core.SchemeNS, sched.FIFO}, {core.SchemeSNP, sched.FIFO}, {core.SchemeSP, sched.FIFO},
		{core.SchemeNS, sched.WorkingSet},
	}
	for _, b := range Behaviors {
		if loadSchedule(b, replaySizes) == nil {
			t.Fatalf("%s: schedule not kept, so its cells would not replay", b.Name)
		}
		for _, sp := range cells {
			for _, n := range []int{4, 5, 8, 32} {
				for _, c := range configs {
					o := SpellOpts{Config: c.cfg, Scheme: sp.scheme, Policy: sp.policy, Behavior: b, Sizes: replaySizes}
					o.Config.Windows = n
					replayed, err := RunSpellWith(o)
					if err != nil {
						t.Fatal(err)
					}
					live, err := runSpellLive(o)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(replayed, live) {
						t.Fatalf("%s/%v/%v/w%d/%s: replay differs from the live run\n replay %+v\n live   %+v",
							b.Name, sp.scheme, sp.policy, n, c.name, replayed, live)
					}
				}
			}
		}
	}

	bad := Behavior{Name: "empty", M: 0, N: 1}
	o := SpellOpts{Config: core.Config{Windows: 8}, Scheme: core.SchemeSP, Policy: sched.FIFO, Behavior: bad, Sizes: replaySizes}
	_, replayErr := RunSpellWith(o)
	_, liveErr := runSpellLive(o)
	if replayErr == nil || fmt.Sprint(replayErr) != fmt.Sprint(liveErr) {
		t.Fatalf("M=0: replay error %v, live error %v", replayErr, liveErr)
	}
}

// TestWorkingSetOnNSIsFIFO keeps the premise of the NS working-set
// replay checked on live runs: NS flushes a thread's windows when it is
// switched away from, so the working-set policy never finds a woken
// thread resident and makes FIFO's decisions. For every behaviour and
// window count the two live runs agree in every field but Policy.
func TestWorkingSetOnNSIsFIFO(t *testing.T) {
	for _, b := range Behaviors {
		for _, n := range []int{4, 5, 8, 32} {
			run := func(p sched.Policy) Result {
				r, err := runSpellLive(SpellOpts{Config: core.Config{Windows: n}, Scheme: core.SchemeNS, Policy: p, Behavior: b, Sizes: replaySizes})
				if err != nil {
					t.Fatal(err)
				}
				return r
			}
			ws, fifo := run(sched.WorkingSet), run(sched.FIFO)
			ws.Policy = fifo.Policy
			if !reflect.DeepEqual(ws, fifo) {
				t.Errorf("%s/w%d: NS working-set run differs from FIFO\n ws   %+v\n fifo %+v", b.Name, n, ws, fifo)
			}
		}
	}
}

// TestReplayablePolicies pins which policies replay on which scheme:
// FIFO on every scheme and working-set scheduling only on NS. On SNP
// and SP a woken thread's windows may still be resident, so the
// working-set policy reads the manager and those cells run live.
func TestReplayablePolicies(t *testing.T) {
	want := map[sched.Policy]map[core.Scheme]bool{
		sched.FIFO:       {core.SchemeNS: true, core.SchemeSNP: true, core.SchemeSP: true},
		sched.WorkingSet: {core.SchemeNS: true, core.SchemeSNP: false, core.SchemeSP: false},
	}
	for _, p := range sched.Policies {
		for _, s := range core.Schemes {
			o := SpellOpts{Config: core.Config{Windows: 8}, Scheme: s, Policy: p, Behavior: Behaviors[0], Sizes: replaySizes}
			if got := replayable(o); got != want[p][s] {
				t.Errorf("%v/%v: replayable %v, want %v", p, s, got, want[p][s])
			}
			o.Quantum = 100
			if replayable(o) {
				t.Errorf("%v/%v with a quantum is replayable", p, s)
			}
		}
	}
}

// TestAppendOpSplitsWideGaps pins the packing of a gap too wide for an
// op's 16 bits: it goes first as work-only ops, and the cycles the ops
// carry add up to the gap. No schedule of the six behaviours has such
// a gap, so only this test reaches the split.
func TestAppendOpSplitsWideGaps(t *testing.T) {
	const gap = 2*maxGap + 5
	ops := appendOp(nil, uint32(core.EvSave), 3, gap)
	want := []uint32{opWork<<24 | maxGap, opWork<<24 | maxGap, uint32(core.EvSave)<<24 | 3<<16 | 5}
	if !reflect.DeepEqual(ops, want) {
		t.Fatalf("ops %#x, want %#x", ops, want)
	}
	var sum uint64
	for _, op := range ops {
		sum += uint64(op & maxGap)
	}
	if sum != gap {
		t.Fatalf("ops carry %d cycles, gap %d", sum, gap)
	}
}

// TestScheduleRecordedOnce starts 16 distinct cells of one key at once
// on an empty store: exactly one recording runs, and every cell gets
// the live result.
func TestScheduleRecordedOnce(t *testing.T) {
	resetScheduleStore(t)
	b, _ := BehaviorByName("high-fine")
	cell := func(i int) SpellOpts {
		return SpellOpts{
			Config: core.Config{Windows: 4 + i}, Scheme: core.Schemes[i%len(core.Schemes)],
			Policy: sched.FIFO, Behavior: b, Sizes: replaySizes,
		}
	}
	const n = 16
	before := recordings.Load()
	results := make([]Result, n)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = mustSpell(cell(i))
		}()
	}
	wg.Wait()
	if got := recordings.Load() - before; got != 1 {
		t.Fatalf("%d concurrent cells of one key ran %d recordings, want 1", n, got)
	}
	for i, r := range results {
		live, err := runSpellLive(cell(i))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r, live) {
			t.Fatalf("cell %d: concurrent replay differs from the live run\n replay %+v\n live   %+v", i, r, live)
		}
	}
	checkScheduleBytes(t)
}

// TestScheduleStoreBounded fills the store to just under its bound with
// a stand-in entry: the next schedule is not kept, the store stays
// within maxScheduleBytes, and its cell still returns the live result.
// Evicting the stand-in with the corpus entry frees its bytes, and a
// schedule is kept again.
func TestScheduleStoreBounded(t *testing.T) {
	resetScheduleStore(t)
	const room = 1000 // below one schedule at replaySizes
	workloadsMu.Lock()
	workloadTick++
	workloads[Sizes{Draft: 1, Dict: 1}] = &workload{
		used: workloadTick, schedules: map[scheduleKey]*scheduleEntry{},
		scheduleBytes: maxScheduleBytes - room,
	}
	scheduleBytes = maxScheduleBytes - room
	workloadsMu.Unlock()

	b, _ := BehaviorByName("high-fine")
	if loadSchedule(b, replaySizes) != nil {
		t.Fatal("a schedule past the bound was kept")
	}
	checkScheduleBytes(t)
	o := SpellOpts{Config: core.Config{Windows: 6}, Scheme: core.SchemeSNP, Policy: sched.FIFO, Behavior: b, Sizes: replaySizes}
	r := mustSpell(o)
	live, err := runSpellLive(o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, live) {
		t.Fatalf("a cell whose schedule was not kept differs from the live run\n got  %+v\n live %+v", r, live)
	}

	for i := 1; i < maxWorkloads; i++ {
		loadWorkload(Sizes{Draft: replaySizes.Draft + i, Dict: replaySizes.Dict + i})
	}
	fresh := Sizes{Draft: replaySizes.Draft + maxWorkloads, Dict: replaySizes.Dict + maxWorkloads}
	if loadSchedule(b, fresh) == nil {
		t.Fatal("no schedule kept after the stand-in entry was evicted")
	}
	checkScheduleBytes(t)
}

// BenchmarkSpellCellReplayed measures one replayed cell per scheme: a
// high-fine cell at QuickSizes and 8 windows, its schedule recorded
// before the timer starts, with the audit off. Besides ns/op it reports
// the cost of one replayed op (a window operation or a work-only gap).
func BenchmarkSpellCellReplayed(b *testing.B) {
	benchWithoutAudit(b)
	bh, _ := BehaviorByName("high-fine")
	s := loadSchedule(bh, QuickSizes)
	if s == nil {
		b.Fatal("schedule not kept, so the cell would run live")
	}
	for _, scheme := range core.Schemes {
		b.Run(scheme.String(), func(b *testing.B) {
			o := SpellOpts{Config: core.Config{Windows: 8}, Scheme: scheme, Policy: sched.FIFO, Behavior: bh, Sizes: QuickSizes}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := RunSpellWith(o); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(s.ops)), "ns/replayed-op")
		})
	}
}
