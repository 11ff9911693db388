// Command asmrun assembles and executes a program written in the
// SPARC-subset assembly on the simulated register-window machine,
// printing console output (the "ta 2" putc trap), the final %o0, and
// optionally a disassembly listing or window statistics.
//
// Usage:
//
//	asmrun [-scheme SP] [-windows 8] [-entry start] [-list] [-stats] prog.s
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"cyclicwin"
	"cyclicwin/internal/regwin"
)

func main() {
	schemeFlag := flag.String("scheme", "SP", "window management scheme: NS, SNP or SP")
	windows := flag.Int("windows", 8, fmt.Sprintf("number of register windows (%d..%d)", regwin.MinWindows, regwin.MaxWindows))
	entry := flag.String("entry", "start", "entry label")
	list := flag.Bool("list", false, "print a disassembly listing and exit")
	stats := flag.Bool("stats", false, "print window statistics")
	traceN := flag.Int("trace", 0, "print the last N window-management events")
	limit := flag.Uint64("limit", 100_000_000, "instruction limit (0 = none)")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: asmrun [flags] prog.s")
		os.Exit(2)
	}
	if *windows < regwin.MinWindows || *windows > regwin.MaxWindows {
		fmt.Fprintf(os.Stderr, "asmrun: window count %d outside %d..%d\n", *windows, regwin.MinWindows, regwin.MaxWindows)
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "asmrun: %v\n", err)
		os.Exit(1)
	}
	prog, err := cyclicwin.Assemble(string(src), 0x1000)
	if err != nil {
		fmt.Fprintf(os.Stderr, "asmrun: %v\n", err)
		os.Exit(1)
	}

	if *list {
		for i, w := range prog.Words {
			addr := prog.Origin + uint32(4*i)
			fmt.Printf("%#06x  %08x  %s\n", addr, w, cyclicwin.Disassemble(w, addr))
		}
		return
	}

	var scheme cyclicwin.Scheme
	switch strings.ToUpper(*schemeFlag) {
	case "NS":
		scheme = cyclicwin.NS
	case "SNP":
		scheme = cyclicwin.SNP
	case "SP":
		scheme = cyclicwin.SP
	default:
		fmt.Fprintf(os.Stderr, "asmrun: unknown scheme %q\n", *schemeFlag)
		os.Exit(2)
	}

	m := cyclicwin.NewMachineOptions(scheme, *windows, cyclicwin.Options{TraceLimit: *traceN})
	cpu, err := m.RunProgram(prog, *entry, *limit)
	if cpu != nil && cpu.Console.Len() > 0 {
		os.Stdout.Write(cpu.Console.Bytes())
		if !strings.HasSuffix(cpu.Console.String(), "\n") {
			fmt.Println()
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "asmrun: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("%%o0 = %d (0x%x) after %d instructions\n", cpu.Reg(8), cpu.Reg(8), cpu.Steps)
	if *traceN > 0 {
		m.Trace().Render(os.Stderr)
	}
	if *stats {
		c := m.Counters()
		fmt.Fprintf(os.Stderr, "cycles %d, saves %d, restores %d, overflow traps %d, underflow traps %d\n",
			m.Cycles(), c.Saves, c.Restores, c.OverflowTraps, c.UnderflowTraps)
	}
}
