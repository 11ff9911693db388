package simsvc

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"cyclicwin/internal/core"
	"cyclicwin/internal/corpus"
	"cyclicwin/internal/harness"
)

func validCell() JobSpec {
	return JobSpec{
		Experiment: ExperimentCell,
		Scheme:     "SP",
		Windows:    8,
		Policy:     "FIFO",
		Behavior:   "high-fine",
	}
}

// TestHashStable pins that hashing is deterministic and that every
// spelling of the defaults lands on the same content address.
func TestHashStable(t *testing.T) {
	s := validCell()
	if s.Hash() != s.Hash() {
		t.Fatal("hash is not deterministic")
	}

	equivalences := []struct {
		name string
		a, b JobSpec
	}{
		{"default policy", JobSpec{Experiment: ExperimentCell, Scheme: "SP", Windows: 8, Behavior: "high-fine"}, validCell()},
		{"full flag vs explicit sizes",
			JobSpec{Experiment: "fig11", Full: true},
			JobSpec{Experiment: "fig11", Draft: harness.FullSizes.Draft, Dict: harness.FullSizes.Dict}},
		{"quick sizes explicit vs zero",
			JobSpec{Experiment: "fig11"},
			JobSpec{Experiment: "fig11", Draft: harness.QuickSizes.Draft, Dict: harness.QuickSizes.Dict}},
		{"trap transfer one vs zero",
			validCell(),
			func() JobSpec { s := validCell(); s.TrapTransfer = 1; return s }()},
		{"default window list",
			JobSpec{Experiment: "fig12"},
			JobSpec{Experiment: "fig12", WindowList: append([]int(nil), harness.WindowCounts...)}},
		{"cell fields ignored by named experiments",
			JobSpec{Experiment: "table2"},
			JobSpec{Experiment: "table2", Scheme: "SP", Windows: 8, Behavior: "high-fine"}},
	}
	for _, e := range equivalences {
		if e.a.Hash() != e.b.Hash() {
			t.Errorf("%s: specs should hash identically:\n  %+v\n  %+v", e.name, e.a, e.b)
		}
	}
}

// TestHashPinned pins Hash to content addresses computed by the
// fmt.Fprintf rendering it replaced, so no cache key or disk entry
// name moves: a plain cell, a quick-size cell, a T3 cell with cores and
// migration, a traced cell with a budget, named experiments with the
// default and explicit window lists, a cell with every bool set and
// extreme unsigned values, and an invalid spec with negative fields.
func TestHashPinned(t *testing.T) {
	pins := []struct {
		name string
		spec JobSpec
		hash string
	}{
		{"cell", JobSpec{Experiment: ExperimentCell, Scheme: "SP", Windows: 8, Behavior: "high-fine", Draft: 2000, Dict: 3001},
			"813ab2ba337b19a6a609156defda1ba285a9eed1f26fde3e9aadfc3483367d15"},
		{"quick cell", JobSpec{Experiment: ExperimentCell, Scheme: "NS", Windows: 4, Policy: "WS", Behavior: "low-coarse"},
			"65e15f554c87d90ef04c250e3a688670ab5598c7e4c06e9ab1415c02dfdef60e"},
		{"t3 cell", JobSpec{Experiment: ExperimentCell, Scheme: "SNP", Windows: 32, Policy: "PRIO", Threads: 128, Cores: 4, Quantum: 500, MigrateEvery: 3},
			"e473f2b78b1bb8b567643f933dcd51dc199a5be76ed01f6f0bab05d678ddefcf"},
		{"traced cell", JobSpec{Experiment: ExperimentCell, Scheme: "SNP", Windows: 6, Behavior: "high-fine", Draft: 600, Dict: 901, Trace: true, MaxCycles: 123456789},
			"38cbbaf0ce2e829345933a919e743e592521b622bc0263ded9677c657875919a"},
		{"named default", JobSpec{Experiment: "fig11"},
			"f374b0c9ec8494075f7b73efc9ce993f92ad93c482c90638a59c8cb4fe8656c2"},
		{"named explicit", JobSpec{Experiment: "fig12", WindowList: []int{4, 6, 8, 16, 32}, Full: true},
			"92f0d94426b39839e6fcfa00e360bc21f7fafae19f8c67d49e785ff9fb973fc9"},
		{"named single", JobSpec{Experiment: "tail", WindowList: []int{256}},
			"fb709f7f579a2bb4c7d222bd6b66ef18a7ff765db213d7135d5b1cfd99d85dc2"},
		{"every bool", JobSpec{Experiment: ExperimentCell, Scheme: "SP", Windows: 256, Behavior: "high-fine", Full: true,
			SearchAlloc: true, HWAssist: true, Trace: true, TrapTransfer: 3, MaxCycles: 1 << 63, Quantum: 1<<64 - 1},
			"ecd2959d51fd4f991dd88158f9e90e71d5102e5d964fbf505d9243d272b02d25"},
		{"negative", JobSpec{Experiment: ExperimentCell, Scheme: "x", Windows: -7, Draft: -1, Dict: -2, TrapTransfer: -3, Threads: -4},
			"a4fb40dc496fdaa802d36fed2b935082249f6a0c0c53e53dbb1aa46cf4530719"},
	}
	for _, p := range pins {
		if got := p.spec.Hash(); got != p.hash {
			t.Errorf("%s: Hash() = %s, want %s", p.name, got, p.hash)
		}
	}
}

// TestHashMatchesFormat compares hash with the fmt rendering it
// replaced over seeded random specs, negative and extreme values and
// window lists of every length up to 40 included.
func TestHashMatchesFormat(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	word := func() string { return []string{"", "cell", "fig11", "SP", "high-fine", "x|y=z", "ünï"}[rng.Intn(7)] }
	num := func() int { return []int{0, 1, -1, rng.Int(), -rng.Int(), math.MaxInt, math.MinInt}[rng.Intn(7)] }
	for i := 0; i < 2000; i++ {
		s := JobSpec{Experiment: word(), Scheme: word(), Windows: num(), Policy: word(), Behavior: word(),
			Draft: num(), Dict: num(), SearchAlloc: rng.Intn(2) == 0, HWAssist: rng.Intn(2) == 0,
			TrapTransfer: num(), MaxCycles: rng.Uint64(), Trace: rng.Intn(2) == 0, Threads: num(),
			Cores: num(), Quantum: rng.Uint64(), MigrateEvery: num()}
		if n := rng.Intn(41); n > 0 || rng.Intn(2) == 0 {
			s.WindowList = make([]int, n)
			for j := range s.WindowList {
				s.WindowList[j] = num()
			}
		}
		sum := sha256.Sum256([]byte(fmt.Sprintf("simsvc-spec-v4|exp=%s|scheme=%s|windows=%d|policy=%s|behavior=%s|draft=%d|dict=%d|wl=%v|search=%t|hw=%t|tt=%d|mc=%d|trace=%t|threads=%d|cores=%d|quantum=%d|migrate=%d",
			s.Experiment, s.Scheme, s.Windows, s.Policy, s.Behavior,
			s.Draft, s.Dict, s.WindowList, s.SearchAlloc, s.HWAssist, s.TrapTransfer, s.MaxCycles, s.Trace,
			s.Threads, s.Cores, s.Quantum, s.MigrateEvery)))
		if got, want := s.hash(), hex.EncodeToString(sum[:]); got != want {
			t.Fatalf("hash of %+v = %s, want %s", s, got, want)
		}
	}
}

// TestJobIDMatchesFormat pins jobID to Sprintf("j%06d").
func TestJobIDMatchesFormat(t *testing.T) {
	for _, seq := range []int{0, 1, 9, 10, 99999, 100000, 999999, 1000000, 1234567, math.MaxInt} {
		if got, want := jobID(seq), fmt.Sprintf("j%06d", seq); got != want {
			t.Errorf("jobID(%d) = %q, want %q", seq, got, want)
		}
	}
}

// TestHashSensitivity pins that changing any semantic field changes
// the hash.
func TestHashSensitivity(t *testing.T) {
	base := validCell()
	mutations := map[string]func(*JobSpec){
		"experiment":    func(s *JobSpec) { s.Experiment = "fig11" },
		"scheme":        func(s *JobSpec) { s.Scheme = "NS" },
		"windows":       func(s *JobSpec) { s.Windows = 9 },
		"policy":        func(s *JobSpec) { s.Policy = "WS" },
		"behavior":      func(s *JobSpec) { s.Behavior = "low-coarse" },
		"draft":         func(s *JobSpec) { s.Draft = 12345 },
		"dict":          func(s *JobSpec) { s.Dict = 20001 },
		"full":          func(s *JobSpec) { s.Full = true },
		"search_alloc":  func(s *JobSpec) { s.SearchAlloc = true },
		"hw_assist":     func(s *JobSpec) { s.HWAssist = true },
		"trap_transfer": func(s *JobSpec) { s.TrapTransfer = 4 },
	}
	seen := map[string]string{base.Hash(): "base"}
	for name, mutate := range mutations {
		s := base
		mutate(&s)
		h := s.Hash()
		if prev, dup := seen[h]; dup {
			t.Errorf("mutating %s collides with %s", name, prev)
		}
		seen[h] = name
	}

	lists := JobSpec{Experiment: "fig11", WindowList: []int{4, 8}}
	if lists.Hash() == (JobSpec{Experiment: "fig11", WindowList: []int{4, 16}}).Hash() {
		t.Error("window list change did not change the hash")
	}
}

func TestValidate(t *testing.T) {
	good := []JobSpec{
		validCell(),
		{Experiment: "fig11"},
		{Experiment: "table2"},
		{Experiment: "hw", Full: true},
		{Experiment: ExperimentCell, Scheme: "SNP", Windows: 4, Behavior: "low-fine", Policy: "WS", SearchAlloc: true},
		{Experiment: ExperimentCell, Scheme: "SP", Windows: 8, Behavior: "high-fine", Draft: corpus.MinDraftSize, Dict: 1},
		{Experiment: "fig11", Draft: MaxTextBytes, Dict: MaxTextBytes},
	}
	for _, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("spec %+v should validate: %v", s, err)
		}
	}
	bad := []JobSpec{
		{Experiment: "nope"},
		{Experiment: ExperimentCell, Scheme: "XX", Windows: 8, Behavior: "high-fine"},
		{Experiment: ExperimentCell, Scheme: "SP", Windows: 1, Behavior: "high-fine"},
		{Experiment: ExperimentCell, Scheme: "SP", Windows: 300, Behavior: "high-fine"},
		{Experiment: ExperimentCell, Scheme: "SP", Windows: 8, Behavior: "high-fine", Threads: 1},
		{Experiment: ExperimentCell, Scheme: "SP", Windows: 8, Threads: 4, Cores: -1},
		{Experiment: ExperimentCell, Scheme: "SP", Windows: 8, Threads: 2048},
		{Experiment: ExperimentCell, Scheme: "SP", Windows: 8, Behavior: "high-fine", Policy: "LIFO"},
		{Experiment: ExperimentCell, Scheme: "SP", Windows: 8, Behavior: "medium-rare"},
		{Experiment: "fig11", WindowList: []int{1}},
		{Experiment: "fig11", WindowList: []int{4, 8, 4}},
		// Sizes the corpus cannot generate, or that would make one
		// request allocate without bound, are rejected for cells and
		// named experiments alike.
		{Experiment: ExperimentCell, Scheme: "SP", Windows: 8, Behavior: "high-fine", Draft: -5},
		{Experiment: ExperimentCell, Scheme: "SP", Windows: 8, Behavior: "high-fine", Draft: 1},
		{Experiment: ExperimentCell, Scheme: "SP", Windows: 8, Behavior: "high-fine", Draft: corpus.MinDraftSize - 1},
		{Experiment: ExperimentCell, Scheme: "SP", Windows: 8, Behavior: "high-fine", Dict: -3},
		{Experiment: ExperimentCell, Scheme: "SP", Windows: 8, Behavior: "high-fine", Draft: MaxTextBytes + 1},
		{Experiment: ExperimentCell, Scheme: "SP", Windows: 8, Threads: 4, Dict: MaxTextBytes + 1},
		{Experiment: "fig11", Draft: 100},
		{Experiment: "table1", Dict: MaxTextBytes + 1},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %+v should be rejected", s)
		}
	}
}

// TestCellRoundTrip pins that a harness sweep cell converts to a spec
// and back without losing anything a figure metric reads.
func TestCellRoundTrip(t *testing.T) {
	cell := harness.CellSpec{
		Scheme:   core.SchemeSP,
		Windows:  6,
		Behavior: harness.Behaviors[0],
		Sizes:    harness.Sizes{Draft: 2000, Dict: 3001},
	}
	spec := CellSpec(cell)
	if err := spec.Validate(); err != nil {
		t.Fatalf("converted cell does not validate: %v", err)
	}
	want := cell.Run()
	cr, _, err := runCell(spec)
	if err != nil {
		t.Fatalf("runCell: %v", err)
	}
	got := cr.HarnessResult(spec)
	if got.Cycles != want.Cycles || got.Misspelled != want.Misspelled ||
		got.Counters.Switches != want.Counters.Switches ||
		got.Counters.AvgSwitchCycles() != want.Counters.AvgSwitchCycles() ||
		got.Counters.TrapProbability() != want.Counters.TrapProbability() ||
		got.ThreadSuspensions != want.ThreadSuspensions {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	if got.Scheme != want.Scheme || got.Windows != want.Windows || got.Behavior.Name != want.Behavior.Name {
		t.Fatalf("identity fields lost in round trip")
	}
}

// TestExperimentCatalog pins the catalog contents the CLI and the API
// both rely on.
func TestExperimentCatalog(t *testing.T) {
	want := []string{"table1", "table2", "fig11", "fig12", "fig13", "fig14", "fig15",
		"ablation", "activity", "tail", "transfer", "hw", "t3threads", "t3migration"}
	names := ExperimentNames()
	if len(names) != len(want) {
		t.Fatalf("catalog has %d entries, want %d", len(names), len(want))
	}
	for i, n := range want {
		if names[i] != n {
			t.Errorf("catalog[%d] = %q, want %q", i, names[i], n)
		}
		e, ok := LookupExperiment(n)
		if !ok {
			t.Errorf("LookupExperiment(%q) failed", n)
			continue
		}
		if e.Description == "" {
			t.Errorf("%s has no description", n)
		}
		wantFigure := n == "fig11" || n == "fig12" || n == "fig13" || n == "fig14" || n == "fig15" ||
			n == "t3threads" || n == "t3migration"
		if e.Figure != wantFigure {
			t.Errorf("%s Figure = %v, want %v", n, e.Figure, wantFigure)
		}
	}
	if _, ok := LookupExperiment("nope"); ok {
		t.Error("LookupExperiment accepted an unknown name")
	}
}

// TestT3CellRoundTrip pins that a T3 chain cell converts to a spec,
// validates, runs through the service path and comes back with the
// migration/preemption counters intact.
func TestT3CellRoundTrip(t *testing.T) {
	cell := harness.CellSpec{
		Scheme:  core.SchemeSP,
		Windows: 33,
		Sizes:   harness.Sizes{Draft: 400, Dict: 1001},
		Threads: 16, Cores: 2, Quantum: 60, MigrateEvery: 2,
	}
	spec := CellSpec(cell)
	if err := spec.Validate(); err != nil {
		t.Fatalf("converted T3 cell does not validate: %v", err)
	}
	want := cell.Run()
	cr, _, err := runCell(spec)
	if err != nil {
		t.Fatalf("runCell: %v", err)
	}
	got := cr.HarnessResult(spec)
	if got.Cycles != want.Cycles || got.Misspelled != want.Misspelled ||
		got.Counters.Migrations != want.Counters.Migrations ||
		got.Counters.MigrationSaves != want.Counters.MigrationSaves ||
		got.Counters.Preemptions != want.Counters.Preemptions {
		t.Fatalf("T3 round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	if want.Counters.Migrations == 0 {
		t.Error("T3 cell migrated nothing at MigrateEvery=2")
	}
}

// TestT3SpecNormalization pins the canonical folds of the T3 fields:
// one core is the plain kernel, migration needs somewhere to go, and
// spell-only knobs cannot leak into a chain cell's hash.
func TestT3SpecNormalization(t *testing.T) {
	base := JobSpec{Experiment: ExperimentCell, Scheme: "SNP", Windows: 64, Threads: 32}
	oneCore := base
	oneCore.Cores = 1
	if base.Hash() != oneCore.Hash() {
		t.Error("cores=0 and cores=1 hash differently")
	}
	migNowhere := base
	migNowhere.MigrateEvery = 4
	if base.Hash() != migNowhere.Hash() {
		t.Error("single-core migrate_every not folded away")
	}
	spellKnobs := base
	spellKnobs.Behavior = "high-fine"
	spellKnobs.Trace = true
	spellKnobs.MaxCycles = 1 << 40
	if base.Hash() != spellKnobs.Hash() {
		t.Error("spell-only knobs leak into a T3 cell hash")
	}
	multi := base
	multi.Cores = 2
	if base.Hash() == multi.Hash() {
		t.Error("core count not hashed")
	}
}
