package harness

import (
	"reflect"
	"testing"

	"cyclicwin/internal/core"
	"cyclicwin/internal/sched"
)

// FuzzTraceReplay checks the recorded traces on stream sizes that none
// of the six behaviours uses: for any M and N in 1..64, scheme, window
// count in 4..32, policy and machine configuration, the replayed cell
// (the (M, N) linear schedule, or the scheduler for a working-set cell
// on SNP or SP) equals the live run in its whole Result, with the audit
// armed (TestMain).
func FuzzTraceReplay(f *testing.F) {
	f.Add(uint8(1), uint8(1), uint8(1), uint8(4), true, false, false, uint8(0))
	f.Add(uint8(2), uint8(3), uint8(2), uint8(7), true, true, false, uint8(2))
	f.Add(uint8(64), uint8(5), uint8(1), uint8(32), true, false, true, uint8(4))
	f.Add(uint8(7), uint8(64), uint8(0), uint8(6), false, true, false, uint8(1))
	f.Add(uint8(33), uint8(1), uint8(2), uint8(5), false, false, true, uint8(3))
	f.Fuzz(func(t *testing.T, m, n, scheme, windows uint8, ws, search, hw bool, transfer uint8) {
		policy := sched.FIFO
		if ws {
			policy = sched.WorkingSet
		}
		o := SpellOpts{
			Config: core.Config{
				Windows:     4 + int(windows)%29,
				SearchAlloc: search, HWAssist: hw, TrapTransfer: int(transfer) % 5,
			},
			Scheme:   core.Schemes[int(scheme)%len(core.Schemes)],
			Policy:   policy,
			Behavior: Behavior{Name: "fuzz", M: 1 + int(m)%64, N: 1 + int(n)%64},
			Sizes:    replaySizes,
		}
		if modeOf(o) == runLive {
			t.Fatalf("%+v would run live", o)
		}
		replayed, err := RunSpellWith(o)
		if err != nil {
			t.Fatal(err)
		}
		live, err := runSpellLive(o)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(replayed, live) {
			t.Fatalf("M=%d N=%d %v/%v/w%d search=%t hw=%t transfer=%d: replay differs from the live run\n replay %+v\n live   %+v",
				o.Behavior.M, o.Behavior.N, o.Scheme, o.Policy, o.Config.Windows, search, hw, o.Config.TrapTransfer, replayed, live)
		}
	})
}
