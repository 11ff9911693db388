// Command spellcheck runs the paper's seven-thread spell checker on a
// LaTeX file (or the builtin synthetic draft) under a chosen window
// management scheme, printing the misspelled words and the machine
// statistics the paper reports.
//
// Usage:
//
//	spellcheck [-scheme NS|SNP|SP] [-windows 8] [-policy fifo|ws]
//	           [-m 4] [-n 4] [-stats] [file.tex]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"cyclicwin"
	"cyclicwin/internal/corpus"
	"cyclicwin/internal/regwin"
)

func main() {
	schemeFlag := flag.String("scheme", "SP", "window management scheme: NS, SNP or SP")
	windows := flag.Int("windows", 8, fmt.Sprintf("number of register windows (%d..%d)", regwin.MinWindows, regwin.MaxWindows))
	policyFlag := flag.String("policy", "fifo", "scheduling policy: fifo or ws (working set)")
	m := flag.Int("m", 4, "buffer size M (file-side streams S1, S4..S6)")
	n := flag.Int("n", 4, "buffer size N (spell-side streams S2, S3)")
	stats := flag.Bool("stats", false, "print machine statistics")
	flag.Parse()

	var scheme cyclicwin.Scheme
	switch strings.ToUpper(*schemeFlag) {
	case "NS":
		scheme = cyclicwin.NS
	case "SNP":
		scheme = cyclicwin.SNP
	case "SP":
		scheme = cyclicwin.SP
	default:
		fmt.Fprintf(os.Stderr, "spellcheck: unknown scheme %q\n", *schemeFlag)
		os.Exit(2)
	}
	if *windows < regwin.MinWindows || *windows > regwin.MaxWindows {
		fmt.Fprintf(os.Stderr, "spellcheck: window count %d outside %d..%d\n", *windows, regwin.MinWindows, regwin.MaxWindows)
		os.Exit(2)
	}
	var policy cyclicwin.Policy
	switch strings.ToLower(*policyFlag) {
	case "fifo":
		policy = cyclicwin.FIFO
	case "ws":
		policy = cyclicwin.WorkingSet
	default:
		fmt.Fprintf(os.Stderr, "spellcheck: unknown policy %q (want fifo or ws)\n", *policyFlag)
		os.Exit(2)
	}

	source := corpus.Draft()
	if flag.NArg() > 0 {
		var err error
		source, err = os.ReadFile(flag.Arg(0))
		if err != nil {
			fmt.Fprintf(os.Stderr, "spellcheck: %v\n", err)
			os.Exit(1)
		}
	}

	mach := cyclicwin.NewMachineOptions(scheme, *windows, cyclicwin.Options{Policy: policy})
	p, err := mach.NewSpellPipeline(cyclicwin.SpellConfig{
		M: *m, N: *n,
		Source:        source,
		MainDict:      corpus.MainDict(),
		ForbiddenDict: corpus.ForbiddenDict(),
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "spellcheck: %v\n", err)
		os.Exit(2)
	}
	if err := mach.Run(); err != nil {
		fmt.Fprintf(os.Stderr, "spellcheck: %v\n", err)
		os.Exit(1)
	}

	for _, w := range p.Misspelled() {
		fmt.Println(w)
	}
	if *stats {
		c := mach.Counters()
		fmt.Fprintf(os.Stderr, "scheme=%v windows=%d policy=%v M=%d N=%d\n", scheme, *windows, policy, *m, *n)
		fmt.Fprintf(os.Stderr, "cycles            %12d\n", mach.Cycles())
		fmt.Fprintf(os.Stderr, "context switches  %12d (avg %.1f cycles, %d with zero transfer)\n",
			c.Switches, c.AvgSwitchCycles(), c.ZeroTransferSwitches)
		fmt.Fprintf(os.Stderr, "saves/restores    %12d / %d\n", c.Saves, c.Restores)
		fmt.Fprintf(os.Stderr, "window traps      %12d overflow / %d underflow (probability %.4f)\n",
			c.OverflowTraps, c.UnderflowTraps, c.TrapProbability())
		fmt.Fprintf(os.Stderr, "windows moved     %12d by traps, %d by switches\n",
			c.TrapSaves+c.TrapRestores, c.SwitchSaves+c.SwitchRestores)
	}
}
