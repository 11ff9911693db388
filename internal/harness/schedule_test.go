package harness

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"cyclicwin/internal/core"
	"cyclicwin/internal/fault"
	"cyclicwin/internal/mem"
	"cyclicwin/internal/sched"
	"cyclicwin/internal/spell"
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
// and under the working-set policy, the replayed cell's whole Result —
// cycles, every counter and the switch-cost distribution, per-thread
// suspensions and the output checksum — equals the live run's, with the
// audit armed (TestMain). FIFO and NS working-set cells replay the
// linear schedule, SNP and SP working-set cells the scheduler. An
// invalid behaviour fails with the same error on both paths.
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
	if loadTraces(replaySizes) == nil {
		t.Fatal("traces not kept, so no cell would replay")
	}
	for _, b := range Behaviors {
		if loadSchedule(b, replaySizes) == nil {
			t.Fatalf("%s: schedule not kept, so its linear cells would not replay", b.Name)
		}
		for _, p := range sched.Policies {
			for _, scheme := range core.Schemes {
				for _, n := range []int{4, 5, 8, 32} {
					for _, c := range configs {
						o := SpellOpts{Config: c.cfg, Scheme: scheme, Policy: p, Behavior: b, Sizes: replaySizes}
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
								b.Name, scheme, p, n, c.name, replayed, live)
						}
					}
				}
			}
		}
	}

	bad := Behavior{Name: "empty", M: 0, N: 1}
	o := SpellOpts{Config: core.Config{Windows: 8}, Scheme: core.SchemeSP, Policy: sched.WorkingSet, Behavior: bad, Sizes: replaySizes}
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

// TestReplayablePolicies pins how each policy replays on each scheme:
// FIFO on every scheme and working-set scheduling on NS through the
// linear schedule, working-set scheduling on SNP and SP through the
// scheduler, whose Wake and pop read the cell's own manager. Any option
// that lets the clock, a hook or chaos steer the guest, a shared
// save-area allocator and a stream size below 1 run live.
func TestReplayablePolicies(t *testing.T) {
	want := map[sched.Policy]map[core.Scheme]replayMode{
		sched.FIFO:       {core.SchemeNS: replayLinear, core.SchemeSNP: replayLinear, core.SchemeSP: replayLinear},
		sched.WorkingSet: {core.SchemeNS: replayLinear, core.SchemeSNP: replayScheduled, core.SchemeSP: replayScheduled},
	}
	live := map[string]func(*SpellOpts){
		"quantum": func(o *SpellOpts) { o.Quantum = 100 },
		"budget":  func(o *SpellOpts) { o.MaxCycles = 1 << 40 },
		"chaos":   func(o *SpellOpts) { o.Chaos = fault.NewInjector(1) },
		"manager": func(o *SpellOpts) { o.OnManager = func(core.Manager) {} },
		"kernel":  func(o *SpellOpts) { o.OnKernel = func(*sched.Kernel) {} },
		"stacks":  func(o *SpellOpts) { o.Config.Stacks = mem.NewStackAllocator(0xfff0000, 1<<16) },
		"M=0":     func(o *SpellOpts) { o.Behavior.M = 0 },
		"N=-1":    func(o *SpellOpts) { o.Behavior.N = -1 },
	}
	for _, p := range sched.Policies {
		for _, s := range core.Schemes {
			o := SpellOpts{Config: core.Config{Windows: 8}, Scheme: s, Policy: p, Behavior: Behaviors[0], Sizes: replaySizes}
			if got := modeOf(o); got != want[p][s] {
				t.Errorf("%v/%v: mode %v, want %v", p, s, got, want[p][s])
			}
			for name, set := range live {
				o := o
				set(&o)
				if got := modeOf(o); got != runLive {
					t.Errorf("%v/%v with %s: mode %v, want live", p, s, name, got)
				}
			}
		}
	}
}

// TestLinearScheduleMatchesLiveRecording pins the derivation of the
// linear schedules: for every behaviour, the scheduler's FIFO run of
// the traces over the Reference makes exactly the window operations,
// acting threads and guest cycles that a live FIFO run of the guest
// over the Reference does, and has the same thread names and output.
func TestLinearScheduleMatchesLiveRecording(t *testing.T) {
	w := loadWorkload(replaySizes)
	for _, b := range Behaviors {
		s := loadSchedule(b, replaySizes)
		if s == nil {
			t.Fatalf("%s: schedule not kept", b.Name)
		}
		live := recordLiveSchedule(t, w, b)
		if !reflect.DeepEqual(s, live) {
			t.Fatalf("%s: derived schedule (%d ops, %v, %d misspelled) differs from the live recording (%d ops, %v, %d misspelled)",
				b.Name, len(s.ops), s.names, s.misspelled, len(live.ops), live.names, live.misspelled)
		}
	}
}

// recordLiveSchedule runs b's guest on a FIFO kernel over the Reference
// and captures each window operation through its event hook, as the
// linear schedules were recorded before the traces existed.
func recordLiveSchedule(t *testing.T, w *workload, b Behavior) *schedule {
	t.Helper()
	ref := core.NewReference(core.Config{})
	k := sched.NewKernel(ref, sched.FIFO)
	var ops []uint32
	var last uint64
	ref.SetEventHook(func(ev core.Event) {
		ops = appendOp(ops, uint32(ev.Kind), ev.Thread, ev.Cycle-last)
		last = ev.Cycle
	})
	p, err := spell.New(k, spell.Config{
		M: b.M, N: b.N,
		Source: w.source, MainDict: w.main, ForbiddenDict: w.forbidden,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if gap := ref.Cycles().Total() - last; gap > 0 {
		ops = appendOp(ops, opWork, 0, gap)
	}
	s := &schedule{ops: ops, misspelled: len(p.Misspelled())}
	for _, th := range k.Threads() {
		s.names = append(s.names, th.Name())
	}
	return s
}

// TestUnfinishedReplayRunsLive pins the fallback for traces that do not
// fit a run: the scheduler reports false when the queue runs dry with a
// thread blocked or when a thread's next op contradicts its stream, and
// a cell whose traces end that way, on either replay path, returns the
// live result.
func TestUnfinishedReplayRunsLive(t *testing.T) {
	resetScheduleStore(t)
	op := func(kind, stream uint32) uint32 { return kind<<24 | stream<<16 }
	exit := op(traceExit, 0)
	deadlock := [][]uint32{{op(traceGet, 1), exit}} // nobody writes S2
	cases := map[string][][]uint32{
		"deadlock":                     deadlock,
		"get on a closed empty stream": {{op(traceClose, 0), exit}, {op(traceGet, 0), exit}},
		"EOF on a stream with bytes":   {{op(tracePut, 0), op(traceClose, 0), exit}, {op(traceEOF, 0), exit}},
		"put after close":              {{op(traceClose, 0), op(tracePut, 0), exit}},
	}
	for name, ops := range cases {
		tr := &traces{names: make([]string, len(ops)), ops: ops}
		for _, p := range sched.Policies {
			if _, ok := tr.run(core.NewReference(core.Config{}), p, []int{1, 1, 1, 1, 1, 1}); ok {
				t.Errorf("%s/%v: the scheduler reported every thread done", name, p)
			}
		}
	}

	w := loadWorkload(replaySizes)
	w.tracesOnce.Do(func() { w.traces = &traces{names: make([]string, 1), ops: deadlock} })
	b, _ := BehaviorByName("high-medium")
	for _, p := range sched.Policies {
		o := SpellOpts{Config: core.Config{Windows: 6}, Scheme: core.SchemeSNP, Policy: p, Behavior: b, Sizes: replaySizes}
		r := mustSpell(o)
		live, err := runSpellLive(o)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r, live) {
			t.Fatalf("%v: a cell whose traces deadlock differs from the live run\n got  %+v\n live %+v", p, r, live)
		}
	}
}

// TestAppendOpSplitsWideGaps pins the packing of a gap too wide for an
// op's 16 bits: it goes first as work-only ops, and the cycles the ops
// carry add up to the gap. No trace or schedule of the six behaviours
// has such a gap, so only this test reaches the split.
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

// TestScheduleRecordedOnce starts 24 distinct cells of one corpus at
// once on an empty store, over every behaviour, scheme and policy:
// exactly one guest run records the traces, and every cell gets the
// live result.
func TestScheduleRecordedOnce(t *testing.T) {
	resetScheduleStore(t)
	cell := func(i int) SpellOpts {
		return SpellOpts{
			Config: core.Config{Windows: 4 + i}, Scheme: core.Schemes[i%len(core.Schemes)],
			Policy: sched.Policies[i/len(core.Schemes)%len(sched.Policies)], Behavior: Behaviors[i%len(Behaviors)],
			Sizes: replaySizes,
		}
	}
	const n = 24
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
		t.Fatalf("%d concurrent cells of one corpus ran %d recordings, want 1", n, got)
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
// a stand-in entry: the next corpus's traces, and so its schedules, are
// not kept, the store stays within maxScheduleBytes, and its cells
// still return the live result. Evicting the stand-in with the corpus
// entry frees its bytes, and a schedule is kept again.
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
	if loadTraces(replaySizes) != nil || loadSchedule(b, replaySizes) != nil {
		t.Fatal("traces or a schedule past the bound were kept")
	}
	checkScheduleBytes(t)
	for _, p := range sched.Policies {
		o := SpellOpts{Config: core.Config{Windows: 6}, Scheme: core.SchemeSNP, Policy: p, Behavior: b, Sizes: replaySizes}
		r := mustSpell(o)
		live, err := runSpellLive(o)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r, live) {
			t.Fatalf("%v: a cell whose traces were not kept differs from the live run\n got  %+v\n live %+v", p, r, live)
		}
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

// BenchmarkSpellCellReplayed measures one replayed high-fine cell at
// QuickSizes and 8 windows per scheme under FIFO, which replays the
// linear schedule, and on SNP and SP under working-set scheduling,
// which runs the scheduler; the traces and the schedule are made before
// the timer starts, and the audit is off. Besides ns/op it reports the
// cost of one replayed op: a schedule op (a window operation or a
// work-only gap), or for the scheduler a trace op.
func BenchmarkSpellCellReplayed(b *testing.B) {
	benchWithoutAudit(b)
	bh, _ := BehaviorByName("high-fine")
	s, tr := loadSchedule(bh, QuickSizes), loadTraces(QuickSizes)
	if s == nil || tr == nil {
		b.Fatal("schedule or traces not kept, so the cells would run live")
	}
	cells := []struct {
		name   string
		scheme core.Scheme
		policy sched.Policy
		ops    int
		unit   string
	}{
		{"NS", core.SchemeNS, sched.FIFO, len(s.ops), "ns/replayed-op"},
		{"SNP", core.SchemeSNP, sched.FIFO, len(s.ops), "ns/replayed-op"},
		{"SP", core.SchemeSP, sched.FIFO, len(s.ops), "ns/replayed-op"},
		{"SNP-WS", core.SchemeSNP, sched.WorkingSet, tr.len(), "ns/trace-op"},
		{"SP-WS", core.SchemeSP, sched.WorkingSet, tr.len(), "ns/trace-op"},
	}
	for _, c := range cells {
		b.Run(c.name, func(b *testing.B) {
			o := SpellOpts{Config: core.Config{Windows: 8}, Scheme: c.scheme, Policy: c.policy, Behavior: bh, Sizes: QuickSizes}
			if modeOf(o) == runLive {
				b.Fatal("the cell would run live")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := RunSpellWith(o); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(c.ops), c.unit)
		})
	}
}
