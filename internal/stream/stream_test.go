package stream

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"cyclicwin/internal/core"
	"cyclicwin/internal/sched"
)

func kernel(s core.Scheme) *sched.Kernel {
	return sched.NewKernel(core.New(s, core.Config{Windows: 8}), sched.FIFO)
}

// mustNew creates a stream, failing the test on a constructor error.
func mustNew(t *testing.T, k *sched.Kernel, name string, capacity int) *Stream {
	t.Helper()
	s, err := New(k, name, capacity)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestProducerConsumer moves a message through a tiny buffer and checks
// content, order and blocking behaviour under every scheme.
func TestProducerConsumer(t *testing.T) {
	msg := "multiple threads in cyclic register windows"
	for _, s := range core.Schemes {
		for _, capacity := range []int{1, 2, 7, 64, 1024} {
			t.Run(fmt.Sprintf("%v/cap=%d", s, capacity), func(t *testing.T) {
				k := kernel(s)
				st := mustNew(t, k, "s", capacity)
				var got bytes.Buffer
				k.Spawn("producer", func(e *sched.Env) {
					st.PutString(e, msg)
					st.Close(e)
				})
				k.Spawn("consumer", func(e *sched.Env) {
					for {
						b, ok := st.Get(e)
						if !ok {
							return
						}
						got.WriteByte(b)
					}
				})
				k.Run()
				if got.String() != msg {
					t.Errorf("received %q, want %q", got.String(), msg)
				}
				if st.BytesWritten != uint64(len(msg)) {
					t.Errorf("BytesWritten = %d, want %d", st.BytesWritten, len(msg))
				}
			})
		}
	}
}

// TestGranularityFollowsBufferSize checks the paper's central workload
// property: the number of context switches scales inversely with the
// buffer size (Section 5.1, Table 1).
func TestGranularityFollowsBufferSize(t *testing.T) {
	run := func(capacity int) uint64 {
		k := kernel(core.SchemeSP)
		st := mustNew(t, k, "s", capacity)
		const n = 4096
		k.Spawn("producer", func(e *sched.Env) {
			for i := 0; i < n; i++ {
				st.Put(e, byte(i))
			}
			st.Close(e)
		})
		k.Spawn("consumer", func(e *sched.Env) {
			for {
				if _, ok := st.Get(e); !ok {
					return
				}
			}
		})
		k.Run()
		return k.Manager().Counters().Switches
	}
	s1, s4, s16 := run(1), run(4), run(16)
	if !(s1 > s4 && s4 > s16) {
		t.Errorf("switches did not fall with buffer size: cap1=%d cap4=%d cap16=%d", s1, s4, s16)
	}
	// With capacity 1 each byte forces (roughly) a producer and a
	// consumer switch.
	if s1 < 4096 {
		t.Errorf("cap-1 switches = %d, want at least one per byte (4096)", s1)
	}
	// With capacity c the producer blocks about n/c times.
	if s16 > 2*4096/16+64 {
		t.Errorf("cap-16 switches = %d, want about %d", s16, 2*4096/16)
	}
}

// TestFIFOOrderProperty checks order preservation for arbitrary payloads
// and capacities.
func TestFIFOOrderProperty(t *testing.T) {
	prop := func(payload []byte, capRaw uint8) bool {
		capacity := int(capRaw)%32 + 1
		k := kernel(core.SchemeSNP)
		st := mustNew(t, k, "s", capacity)
		var got []byte
		k.Spawn("p", func(e *sched.Env) {
			for _, b := range payload {
				st.Put(e, b)
			}
			st.Close(e)
		})
		k.Spawn("c", func(e *sched.Env) {
			for {
				b, ok := st.Get(e)
				if !ok {
					return
				}
				got = append(got, b)
			}
		})
		k.Run()
		return bytes.Equal(got, payload)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPipelineOfThree chains two streams through a middle filter, the
// shape of the spell checker's T1->T2->T3 path.
func TestPipelineOfThree(t *testing.T) {
	k := kernel(core.SchemeSP)
	s1 := mustNew(t, k, "s1", 4)
	s2 := mustNew(t, k, "s2", 4)
	var out bytes.Buffer
	k.Spawn("source", func(e *sched.Env) {
		s1.PutString(e, "abcdefg")
		s1.Close(e)
	})
	k.Spawn("upper", func(e *sched.Env) {
		for {
			b, ok := s1.Get(e)
			if !ok {
				s2.Close(e)
				return
			}
			s2.Put(e, b-'a'+'A')
		}
	})
	k.Spawn("sink", func(e *sched.Env) {
		for {
			b, ok := s2.Get(e)
			if !ok {
				return
			}
			out.WriteByte(b)
		}
	})
	k.Run()
	if out.String() != "ABCDEFG" {
		t.Errorf("pipeline output = %q, want ABCDEFG", out.String())
	}
}

// TestWriteAfterCloseFailsThread pins the misuse diagnostic: the guest
// bug fails the run with a structured error instead of panicking.
func TestWriteAfterCloseFailsThread(t *testing.T) {
	k := kernel(core.SchemeNS)
	st := mustNew(t, k, "s", 4)
	bad := k.Spawn("bad", func(e *sched.Env) {
		st.Close(e)
		st.Put(e, 'x')
	})
	err := k.Run()
	if err == nil {
		t.Fatal("write after close did not fail the run")
	}
	for _, want := range []string{"stream s", "write after close", "bad"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
	if bad.State() != sched.Failed {
		t.Errorf("thread state = %v, want Failed", bad.State())
	}
	if bad.Err() == nil {
		t.Error("failed thread carries no error")
	}
}

// TestZeroCapacityRejected pins the constructor contract: zero and
// negative capacities are errors, not panics or latent deadlocks.
func TestZeroCapacityRejected(t *testing.T) {
	k := kernel(core.SchemeNS)
	for _, capacity := range []int{0, -1, -1000} {
		if _, err := New(k, "s", capacity); err == nil {
			t.Errorf("capacity %d accepted", capacity)
		}
	}
}

// TestReadAfterCloseDrains checks buffered bytes survive Close.
func TestReadAfterCloseDrains(t *testing.T) {
	k := kernel(core.SchemeSP)
	st := mustNew(t, k, "s", 8)
	var got []byte
	k.Spawn("p", func(e *sched.Env) {
		st.PutString(e, "xyz")
		st.Close(e)
	})
	k.Spawn("c", func(e *sched.Env) {
		for {
			b, ok := st.Get(e)
			if !ok {
				return
			}
			got = append(got, b)
		}
	})
	k.Run()
	if string(got) != "xyz" {
		t.Errorf("drained %q, want xyz", got)
	}
}

// TestHookSeesEveryOperation pins the hook: every Put, Get, EOF and
// Close is seen once, with the acting thread, in the order the threads
// made them. Two producers share one stream, which a consumer drains
// to EOF, through buffers small enough to block both sides; the bodies
// log each operation as it returns, which no other thread can run
// between, and the hook's log must equal theirs.
func TestHookSeesEveryOperation(t *testing.T) {
	type rec struct {
		op     Op
		thread string
	}
	for _, capacity := range []int{1, 2, 5, 64} {
		t.Run(fmt.Sprintf("cap=%d", capacity), func(t *testing.T) {
			k := kernel(core.SchemeSP)
			st := mustNew(t, k, "s", capacity)
			var hooked, made []rec
			st.SetHook(func(op Op, tcb *sched.TCB) { hooked = append(hooked, rec{op, tcb.Name()}) })
			done := 0
			producer := func(msg string) func(*sched.Env) {
				return func(e *sched.Env) {
					for i := 0; i < len(msg); i++ {
						st.Put(e, msg[i])
						made = append(made, rec{OpPut, e.TCB().Name()})
					}
					if done++; done == 2 {
						st.Close(e)
						made = append(made, rec{OpClose, e.TCB().Name()})
					}
				}
			}
			k.Spawn("p1", producer("multiple threads"))
			k.Spawn("p2", producer("cyclic windows"))
			k.Spawn("consumer", func(e *sched.Env) {
				for {
					_, ok := st.Get(e)
					if !ok {
						made = append(made, rec{OpEOF, e.TCB().Name()})
						return
					}
					made = append(made, rec{OpGet, e.TCB().Name()})
				}
			})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			if want := 2*len("multiple threads"+"cyclic windows") + 2; len(made) != want {
				t.Fatalf("the bodies made %d operations, want %d", len(made), want)
			}
			if !reflect.DeepEqual(hooked, made) {
				t.Fatalf("the hook saw\n %v\nthe threads made\n %v", hooked, made)
			}
		})
	}
}
