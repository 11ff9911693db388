package cyclicwin

import (
	"errors"
	"reflect"
	"testing"

	"cyclicwin/internal/corpus"
)

func TestMachineQuickstart(t *testing.T) {
	for _, s := range Schemes {
		m := NewMachine(s, 8)
		var result uint32
		m.Spawn("worker", func(e *Env) {
			e.Call(func(e *Env) {
				e.SetRet(e.Arg(0) * 2)
			}, 21)
			result = e.Ret()
		})
		m.Run()
		if result != 42 {
			t.Errorf("%v: result = %d, want 42", s, result)
		}
		if m.Counters().Saves == 0 {
			t.Errorf("%v: no save instructions executed", s)
		}
	}
}

func TestMachineStreams(t *testing.T) {
	m := NewMachineOptions(SP, 16, Options{Policy: WorkingSet})
	s, err := m.NewStream("pipe", 4)
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	m.Spawn("producer", func(e *Env) {
		s.PutString(e, "hello")
		s.Close(e)
	})
	m.Spawn("consumer", func(e *Env) {
		for {
			b, ok := s.Get(e)
			if !ok {
				return
			}
			got = append(got, b)
		}
	})
	m.Run()
	if string(got) != "hello" {
		t.Errorf("got %q", got)
	}
	if m.Cycles() == 0 {
		t.Error("no cycles charged")
	}
}

func TestSpellPipelineFacade(t *testing.T) {
	cfg := SpellConfig{
		M: 4, N: 4,
		Source:        corpus.ScaledDraft(2000),
		MainDict:      corpus.ScaledMainDict(4001),
		ForbiddenDict: corpus.ScaledForbiddenDict(4001),
	}
	want := SpellCheckText(cfg.Source, cfg.MainDict, cfg.ForbiddenDict)

	m := NewMachine(SNP, 12)
	p, err := m.NewSpellPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	got := p.Misspelled()
	if len(want) == 0 {
		t.Fatal("reference found nothing")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("pipeline %v != reference %v", got, want)
	}
}

func TestAssemblyFacade(t *testing.T) {
	p, err := Assemble(`
start:
	mov 6, %o0
	smul %o0, %o0, %o0
	ta 0
`, 0x1000)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(SP, 8)
	cpu, err := m.RunProgram(p, "start", 100)
	if err != nil {
		t.Fatal(err)
	}
	if got := cpu.Reg(8); got != 36 {
		t.Errorf("%%o0 = %d, want 36", got)
	}
	if d := Disassemble(p.Words[0], 0x1000); d == "" {
		t.Error("empty disassembly")
	}
}

func TestSpawnProgramThreads(t *testing.T) {
	m := NewMachine(SP, 16)
	p, err := Assemble(`
start:
	mov 'o', %o0
	ta 2
	yield
	mov 'k', %o0
	ta 2
	ta 0
`, 0x1000)
	if err != nil {
		t.Fatal(err)
	}
	m.LoadProgram(p)
	var console []byte
	m.SpawnProgram("asm", p.Entry("start"), 0x700000, &console)
	m.Spawn("go", func(e *Env) { e.Work(10) })
	m.Run()
	if string(console) != "ok" {
		t.Errorf("console = %q, want ok", console)
	}
}

func TestCycleModelExposed(t *testing.T) {
	cm := CycleModel()
	if cm["SwitchBaseSP"] != 93 || cm["SwitchBaseSNP"] != 113 || cm["SwitchBaseNS"] != 80 {
		t.Errorf("cycle model constants drifted: %v", cm)
	}
	if cm["UnderflowTrapInPlace"] == 0 {
		t.Error("missing trap cost")
	}
}

func TestTracingOption(t *testing.T) {
	m := NewMachineOptions(SP, 8, Options{TraceLimit: 64})
	m.Spawn("t", func(e *Env) {
		e.Call(func(e *Env) {})
	})
	m.Run()
	tr := m.Trace()
	if tr == nil {
		t.Fatal("Trace() nil with TraceLimit set")
	}
	if tr.Total() == 0 {
		t.Error("no events recorded")
	}
	if NewMachine(SP, 8).Trace() != nil {
		t.Error("Trace() non-nil without TraceLimit")
	}
}

func TestActivityOption(t *testing.T) {
	rec := &ActivityRecorder{}
	m := NewMachineOptions(SP, 16, Options{Activity: rec})
	m.Spawn("t", func(e *Env) {
		e.Call(func(e *Env) { e.Call(func(e *Env) {}) })
	})
	m.Run()
	if got := rec.MeanPerThread(); got != 3 {
		t.Errorf("activity per thread = %g, want 3 (depths 0..2)", got)
	}
}

func TestTrapTransferOption(t *testing.T) {
	run := func(k int) uint64 {
		m := NewMachineOptions(SP, 8, Options{TrapTransfer: k})
		m.Spawn("t", func(e *Env) {
			var deep func(e *Env)
			deep = func(e *Env) {
				if e.Arg(0) > 0 {
					e.Call(deep, e.Arg(0)-1)
				}
			}
			e.Call(deep, 20)
		})
		m.Run()
		return m.Counters().OverflowTraps
	}
	if t1, t4 := run(1), run(4); t4*2 >= t1 {
		t.Errorf("transfer=4 took %d traps vs %d at transfer=1", t4, t1)
	}
}

func TestResidentAndWake(t *testing.T) {
	m := NewMachine(SP, 16)
	var sleeper *TCB
	sleeper = m.Spawn("sleeper", func(e *Env) { e.Block() })
	m.Spawn("waker", func(e *Env) {
		if !m.Resident(sleeper) {
			t.Error("sleeper's windows should be resident under SP")
		}
		m.Wake(sleeper)
	})
	m.Run()
}

// TestTracedFaultMatchesUntraced pins that tracing is invisible to the
// machine-code interpreter: a guest fault raised two frames deep
// reports the same window context (CWP 6 after two saves from slot 0
// of an 8-window SP file) whether or not Options.TraceLimit is set.
func TestTracedFaultMatchesUntraced(t *testing.T) {
	prog, err := Assemble(`
start:
	save %sp, -96, %sp
	save %sp, -96, %sp
	mov 0x101, %o1
	ld [%o1], %o2
	ta 0
`, 0x1000)
	if err != nil {
		t.Fatal(err)
	}
	run := func(traceLimit int) *GuestFault {
		t.Helper()
		m := NewMachineOptions(SP, 8, Options{TraceLimit: traceLimit})
		_, err := m.RunProgram(prog, "start", 1000)
		var gf *GuestFault
		if !errors.As(err, &gf) {
			t.Fatalf("TraceLimit %d: got %v, want a guest fault", traceLimit, err)
		}
		return gf
	}
	plain, traced := run(0), run(64)
	if plain.Error() != traced.Error() {
		t.Errorf("traced fault differs:\n untraced %s\n traced   %s", plain, traced)
	}
	if plain.CWP != traced.CWP {
		t.Errorf("traced fault CWP %d, untraced %d", traced.CWP, plain.CWP)
	}
	if plain.CWP != 6 {
		t.Errorf("fault CWP %d, want 6", plain.CWP)
	}
}
