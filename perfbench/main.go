// Command perfbench is the repository's benchmark. It runs one workload
// (figures, t3-scale or serve-mixed), measures it from outside through
// the public functions of the simulator's packages and the winsimd HTTP
// API, checks every output, and prints each metric by name with its
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the JSON metrics are the end-to-end set of
// BENCHMARK.json, measured with tracing off. With --trace 1 a separate
// traced run reports the per-layer set. The lines above the JSON name
// every metric the run measured, including the ones that exist on only
// some workloads.
//
// Run it from the repository root through run.sh, which builds this
// program and cmd/winsimd into .bench_build:
//
//	bash perfbench/run.sh --workload figures --seed 1 --seconds 30 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"cyclicwin/internal/core"
)

// units maps every metric the benchmark can print to its unit.
var units = map[string]string{
	// End-to-end, on every workload.
	"setup_s":     "s",
	"wall_s":      "s",
	"cpu_s":       "s",
	"alloc_mb":    "MB",
	"peak_rss_mb": "MB",

	// End-to-end, on some workloads only.
	"sim_events_per_s":   "events/s",
	"goroutines_leaked":  "count",
	"serve_p50_ms":       "ms",
	"serve_p99_ms":       "ms",
	"serve_light_p99_ms": "ms",
	"serve_max_rps":      "req/s",

	// Per layer, on every workload.
	"core.switch.count":         "count",
	"core.save.count":           "count",
	"core.restore.count":        "count",
	"core.trap.count":           "count",
	"core.windows_moved.count":  "count",
	"core.switch.ns":            "ns",
	"core.save.ns":              "ns",
	"core.restore.ns":           "ns",
	"core.self_s":               "s",
	"mem.stores.count":          "count",
	"mem.loads.count":           "count",
	"mem.store32.ns":            "ns",
	"mem.load32.ns":             "ns",
	"regwin.op.ns":              "ns",
	"sched.handoff.ns":          "ns",
	"sched.run.self_s":          "s",
	"stream.byte_handoff.ns":    "ns",
	"stream.byte_buffered.ns":   "ns",
	"harness.cells.count":       "count",
	"harness.cell_ms":           "ms",
	"cache.get.ns":              "ns",
	"runtime.goroutines.end":    "count",
	"runtime.heap_inuse_mb.end": "MB",
	"trace.overhead_pct":        "%",
	"ledger.residual_pct":       "%",

	// Per layer, on some workloads only.
	"core.evict.count":         "count",
	"core.evict.ns":            "ns",
	"pool.queue_wait.ms":       "ms",
	"pool.run.ms":              "ms",
	"http.overhead.ms":         "ms",
	"http.resp_bytes":          "bytes",
	"cache.hit_ratio":          "ratio",
	"cache.hits.count":         "count",
	"cache.misses.count":       "count",
	"cache.coalesced.count":    "count",
	"serve.gen_lag_ms":         "ms",
	"serve.hot.cpu_ms":         "ms",
	"serve.cold.cpu_ms":        "ms",
	"serve.trace.cpu_ms":       "ms",
	"serve.over-budget.cpu_ms": "ms",
	"serve.sim_share_pct":      "%",
	"ledger.predicted_wall_s":  "s",
}

// endToEnd and perLayer are the metrics the JSON line carries with
// --trace 0 and --trace 1. They are the ones every workload measures;
// BENCHMARK.json lists the same names (TestBenchmarkJSONMatches).
var (
	endToEnd = []string{"setup_s", "wall_s", "cpu_s", "alloc_mb", "peak_rss_mb"}
	perLayer = []string{
		"core.switch.count", "core.save.count", "core.restore.count", "core.trap.count",
		"core.windows_moved.count", "core.switch.ns", "core.save.ns", "core.restore.ns", "core.self_s",
		"mem.stores.count", "mem.loads.count", "mem.store32.ns", "mem.load32.ns",
		"regwin.op.ns", "sched.handoff.ns", "sched.run.self_s",
		"stream.byte_handoff.ns", "stream.byte_buffered.ns",
		"harness.cells.count", "harness.cell_ms",
		"cache.get.ns", "runtime.goroutines.end", "runtime.heap_inuse_mb.end",
		"trace.overhead_pct", "ledger.residual_pct",
	}
)

// report is what one workload run produced.
type report struct {
	attempted, failed int
	metrics           map[string]float64
	notes             []string // extra human-readable lines
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

func (r *report) set(name string, v float64) {
	if _, ok := units[name]; !ok {
		panic("perfbench: metric " + name + " has no unit")
	}
	r.metrics[name] = v
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// op counts one attempted operation and whether it failed.
func (r *report) op(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

// options are the command-line inputs of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // repository root
	winsimd  string // winsimd binary for serve-mixed
	out      string // directory for span files
	commit   string // source revision, when known
}

// workloadOrder is the order --workload all runs them in.
var workloadOrder = []string{"figures", "t3-scale", "serve-mixed"}

var workloads = map[string]func(options) (*report, error){
	"figures":     runFigures,
	"t3-scale":    runT3Scale,
	"serve-mixed": runServeMixed,
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload to run: figures, t3-scale, serve-mixed, or all three")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 30, "measurement length in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
	flag.StringVar(&o.root, "root", ".", "repository root")
	flag.StringVar(&o.winsimd, "winsimd", ".bench_build/bin/winsimd", "winsimd binary (serve-mixed)")
	flag.StringVar(&o.out, "out", ".bench_build/perfbench", "directory for the traced run's span files")
	flag.StringVar(&o.commit, "commit", "unknown", "source revision to record with the results")
	flag.Parse()
	o.trace = traceFlag == 1
	_, ok := workloads[o.workload]
	if !(ok || o.workload == "all") || (traceFlag != 0 && traceFlag != 1) || o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload figures|t3-scale|serve-mixed|all --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if err := guardEnvironment(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if o.workload == "all" {
		if err := runEach(o, traceFlag); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	printEnvironment(o)
	rep, err := workloads[o.workload](o)
	if err == nil {
		var line string
		if line, err = finish(o, rep); err == nil {
			fmt.Println(line)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
}

// runEach runs every workload in a process of its own, one after the
// other, so that no workload's peak RSS or leftover heap shows in the
// next one's figures.
func runEach(o options, traceFlag int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, name := range workloadOrder {
		cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatInt(o.seed, 10),
			"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--trace", strconv.Itoa(traceFlag),
			"--root", o.root, "--winsimd", o.winsimd, "--out", o.out, "--commit", o.commit)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}

// guardEnvironment refuses to measure with the invariant audit armed:
// it multiplies the cost of every window operation.
func guardEnvironment() error {
	if core.InvariantChecksEnabled() {
		return errors.New("the core invariant audit is armed; refusing to measure")
	}
	return nil
}

// printEnvironment records what every result depends on.
func printEnvironment(o options) {
	fmt.Printf("env workload=%s seed=%d seconds=%g trace=%t\n", o.workload, o.seed, o.seconds, o.trace)
	fmt.Printf("env commit=%s source_sha256=%s go=%s gomaxprocs=%d nproc=%d audit=%t\n",
		o.commit, sourceDigest(o.root), runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(),
		core.InvariantChecksEnabled())
}

// sourceDigest hashes every Go source and module file under root,
// skipping build outputs, so two results can be tied to the same code
// even in a checkout without git metadata.
func sourceDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && p != root) {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(p), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// finish prints every measured metric with its unit and returns the
// JSON result line for the selected metric set.
func finish(o options, rep *report) (string, error) {
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	names := make([]string, 0, len(rep.metrics))
	for n := range rep.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-26s %16.6f %s\n", n, rep.metrics[n], units[n])
	}
	want := endToEnd
	if o.trace {
		want = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]value{}}
	for _, n := range want {
		v, ok := rep.metrics[n]
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", n)
		}
		out.Metrics[n] = value{v, units[n]}
	}
	if rep.attempted < 1 {
		return "", errors.New("no operation was attempted")
	}
	data, err := json.Marshal(out)
	if err != nil {
		return "", err
	}
	return string(data), nil
}
