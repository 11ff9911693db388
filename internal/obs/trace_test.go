package obs

import (
	"bytes"
	"encoding/json"
	"testing"

	"cyclicwin/internal/core"
	"cyclicwin/internal/regwin"
)

func TestTracerRing(t *testing.T) {
	tr := NewTracer(3)
	for i := 0; i < 5; i++ {
		tr.observe(core.Event{Cycle: uint64(i), Kind: core.EvSave})
	}
	if tr.Total() != 5 {
		t.Fatalf("Total = %d, want 5", tr.Total())
	}
	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("len(Events) = %d, want 3", len(evs))
	}
	for i, ev := range evs {
		if want := uint64(i + 2); ev.Cycle != want {
			t.Fatalf("event %d cycle %d, want %d (oldest-first unwrap)", i, ev.Cycle, want)
		}
	}
	snap := tr.Snapshot()
	if snap.Total != 5 || snap.Limit != 3 || len(snap.Events) != 3 {
		t.Fatalf("snapshot %+v", snap)
	}
}

// TestTracerAttach drives a real NS manager through a switch, saves
// past overflow, restores past underflow, and an exit, asserting the
// hook reports each operation with the expected kinds.
func TestTracerAttach(t *testing.T) {
	mgr := core.New(core.SchemeNS, core.Config{Windows: 4})
	tr := NewTracer(0)
	if !tr.Attach(mgr) {
		t.Fatal("NS manager did not expose an event source")
	}
	th := mgr.NewThread(1, "worker")
	mgr.Switch(th)
	for i := 0; i < 4; i++ {
		mgr.Save()
	}
	for i := 0; i < 4; i++ {
		mgr.Restore()
	}
	mgr.Exit()

	evs := tr.Events()
	var kinds []core.EventKind
	for _, ev := range evs {
		kinds = append(kinds, ev.Kind)
		if ev.Thread != 1 {
			t.Fatalf("event %v has thread %d", ev.Kind, ev.Thread)
		}
	}
	// 4 windows, 1 reserved: after the switch places the stack-top,
	// two saves fill the file and the next two overflow; unwinding,
	// two restores succeed in-file and two underflow.
	want := []core.EventKind{
		core.EvSwitch,
		core.EvSave, core.EvSave, core.EvOverflow, core.EvOverflow,
		core.EvRestore, core.EvRestore, core.EvUnderflow, core.EvUnderflow,
		core.EvExit,
	}
	if len(kinds) != len(want) {
		t.Fatalf("kinds %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("kinds %v, want %v", kinds, want)
		}
	}
	// Cycle stamps never decrease and the trap events moved a window.
	var last uint64
	for _, ev := range evs {
		if ev.Cycle < last {
			t.Fatalf("cycle went backwards: %+v", evs)
		}
		last = ev.Cycle
		switch ev.Kind {
		case core.EvOverflow, core.EvUnderflow:
			if ev.Moved == 0 {
				t.Fatalf("trap event moved nothing: %+v", ev)
			}
		}
	}

	// The Reference oracle reports the same operations, with no traps,
	// no cost and no window file; a switch to the running thread is
	// still one event, as it is for the schemes.
	ref := core.New(core.SchemeReference, core.Config{Windows: 4})
	rtr := NewTracer(0)
	if !rtr.Attach(ref) {
		t.Fatal("Reference manager did not expose an event source")
	}
	rth := ref.NewThread(2, "oracle")
	ref.Switch(rth)
	ref.Switch(rth)
	ref.Save()
	ref.Restore()
	ref.Exit()
	wantRef := []core.Event{
		{Kind: core.EvSwitch, Thread: 2},
		{Kind: core.EvSwitch, Thread: 2},
		{Kind: core.EvSave, Thread: 2},
		{Kind: core.EvRestore, Thread: 2},
		{Kind: core.EvExit, Thread: 2},
	}
	got := rtr.Events()
	if len(got) != len(wantRef) {
		t.Fatalf("Reference events %+v, want %+v", got, wantRef)
	}
	for i := range wantRef {
		if got[i] != wantRef[i] {
			t.Fatalf("Reference event %d = %+v, want %+v", i, got[i], wantRef[i])
		}
	}
	if wm := rtr.WindowMap(got[0]); wm != "" {
		t.Fatalf("Reference window map %q, want empty", wm)
	}
}

func TestChromeTraceEncode(t *testing.T) {
	mgr := core.New(core.SchemeSP, core.Config{Windows: 4})
	tr := NewTracer(0)
	tr.Attach(mgr)
	tr.SetThreadName(7, "crunch")
	th := mgr.NewThread(7, "crunch")
	mgr.Switch(th)
	mgr.Save()
	mgr.Restore()
	mgr.Exit()

	ct := NewChromeTrace()
	ct.AddProcess(1, "SP/w4 demo", tr.Snapshot())
	var buf bytes.Buffer
	if err := ct.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			TS   *uint64        `json:"ts"`
			Dur  *uint64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("not valid trace_event JSON: %v\n%s", err, buf.String())
	}
	var meta, slices int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
			if ev.Args["name"] == nil {
				t.Fatalf("metadata event without name: %+v", ev)
			}
		case "X":
			slices++
			if ev.TS == nil || ev.Dur == nil {
				t.Fatalf("slice without ts/dur: %+v", ev)
			}
			if ev.TID != 7 {
				t.Fatalf("slice tid %d, want 7", ev.TID)
			}
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	if meta != 2 { // process_name + thread_name
		t.Fatalf("%d metadata events, want 2", meta)
	}
	if slices != 4 { // switch, save, restore, exit
		t.Fatalf("%d slices, want 4", slices)
	}
}

// TestJobTraceRoundTrip pins the wire form used by simsvc job results.
func TestJobTraceRoundTrip(t *testing.T) {
	jt := &JobTrace{
		Total: 9, Limit: 4,
		ThreadNames: map[int]string{2: "main"},
		Events: []core.Event{
			{Cycle: 10, Cost: 4, Moved: 1, Kind: core.EvOverflow, Thread: 2, CWP: 1, WIM: regwin.MaskOf(0b0100)},
		},
	}
	blob, err := json.Marshal(jt)
	if err != nil {
		t.Fatal(err)
	}
	var back JobTrace
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.Total != 9 || back.ThreadNames[2] != "main" || len(back.Events) != 1 {
		t.Fatalf("round trip %+v", back)
	}
	if back.Events[0] != jt.Events[0] {
		t.Fatalf("event round trip %+v != %+v", back.Events[0], jt.Events[0])
	}
}
