package cyclicwin_test

import (
	"fmt"
	"os"

	"cyclicwin"
)

// Two threads share one register-window file under the SP scheme; the
// consumer's windows stay resident while the producer runs, so their
// context switches transfer nothing.
func Example() {
	m := cyclicwin.NewMachine(cyclicwin.SP, 8)
	pipe, err := m.NewStream("pipe", 1)
	if err != nil {
		panic(err)
	}

	m.Spawn("producer", func(e *cyclicwin.Env) {
		for i := uint32(1); i <= 3; i++ {
			e.Call(func(e *cyclicwin.Env) { e.SetRet(e.Arg(0) * 10) }, i)
			pipe.Put(e, byte(e.Ret()))
		}
		pipe.Close(e)
	})
	m.Spawn("consumer", func(e *cyclicwin.Env) {
		for {
			b, ok := pipe.Get(e)
			if !ok {
				return
			}
			fmt.Println(b)
		}
	})
	m.Run()
	fmt.Println("procedure calls through the windows:", m.Counters().Saves)
	// Output:
	// 10
	// 20
	// 30
	// procedure calls through the windows: 3
}

// A recursive procedure runs deeper than the window file; the trap
// handlers spill and refill windows transparently and the computation
// is exact.
func ExampleMachine_recursion() {
	m := cyclicwin.NewMachine(cyclicwin.SNP, 4)
	var sum func(e *cyclicwin.Env)
	sum = func(e *cyclicwin.Env) {
		n := e.Arg(0)
		if n == 0 {
			e.SetRet(0)
			return
		}
		e.Call(sum, n-1)
		e.SetRet(n + e.Ret())
	}
	m.Spawn("gauss", func(e *cyclicwin.Env) {
		e.Call(sum, 100)
		fmt.Println("sum(1..100) =", e.Ret())
	})
	m.Run()
	c := m.Counters()
	fmt.Println("overflow traps:", c.OverflowTraps > 0, "underflow traps:", c.UnderflowTraps > 0)
	// Output:
	// sum(1..100) = 5050
	// overflow traps: true underflow traps: true
}

// Machine code runs on the same window managers through the assembler.
func ExampleAssemble() {
	prog, err := cyclicwin.Assemble(`
start:
	mov 6, %o0
	call double
	ta 0
double:
	save %sp, -96, %sp
	add %i0, %i0, %i0
	restore
	ret
`, 0x1000)
	if err != nil {
		panic(err)
	}
	m := cyclicwin.NewMachine(cyclicwin.SP, 8)
	cpu, err := m.RunProgram(prog, "start", 1000)
	if err != nil {
		panic(err)
	}
	fmt.Println("result register o0 =", cpu.Reg(8))
	// Output:
	// result register o0 = 12
}

// Options.TraceLimit records every window-management event; Render
// prints one line per event with a map of the window file (* current,
// o valid, . invalid) and Summarise totals the events by kind.
func ExampleMachine_Trace() {
	m := cyclicwin.NewMachineOptions(cyclicwin.SP, 4, cyclicwin.Options{TraceLimit: 64})
	m.Spawn("a", func(e *cyclicwin.Env) {
		e.Call(func(e *cyclicwin.Env) {
			e.Call(func(e *cyclicwin.Env) { e.Yield() })
		})
	})
	m.Spawn("b", func(e *cyclicwin.Env) {
		e.Call(func(e *cyclicwin.Env) {})
	})
	if err := m.Run(); err != nil {
		panic(err)
	}
	m.Trace().Render(os.Stdout)
	m.Trace().Summarise(os.Stdout)
	// Output:
	// seq      cycle  thr event          cost  moved  cwp windows (*=current o=valid .=invalid)
	//      0         93    0 switch           93      0    0 *...
	//      1        124    0 save/OVF         31      0    3 o..*
	//      2        155    0 save/OVF         31      0    2 o.*o
	//      3        336    1 switch          181      2    0 *...
	//      4        403    1 save/OVF         67      1    3 o..*
	//      5        404    1 restore           1      0    0 *..o
	//      6        404    1 exit              0      0    0 *.oo
	//      7        540    0 switch          136      1    0 *...
	//      8        604    0 restore/UNF      64      1    0 *...
	//      9        668    0 restore/UNF      64      1    0 *...
	//     10        668    0 exit              0      0    0 *..o
	// switch              3 events          410 cycles
	// restore             1 events            1 cycles
	// save/OVF            3 events          129 cycles
	// restore/UNF         2 events          128 cycles
	// exit                2 events            0 cycles
}
