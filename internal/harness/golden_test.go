package harness

import (
	"os"
	"strings"
	"testing"
)

// TestFigureOutputsGolden pins the figure sweeps byte-for-byte to
// output captured before the fast interpreter core landed: any change
// to the simulated cycle counts, switch costs, or rendering shows up as
// a diff here. Regenerate testdata/figures_quick_golden.txt only for an
// intentional model change, and say so in the commit.
func TestFigureOutputsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick-size sweep; skipped in -short mode")
	}
	windows := []int{4, 6, 8, 16, 32}
	sz := QuickSizes
	var sb strings.Builder
	figs := []struct {
		name string
		run  func(Sizes, []int, Runner) Figure
	}{
		{"fig11", RunFig11With},
		{"fig12", RunFig12With},
		{"fig13", RunFig13With},
		{"fig14", RunFig14With},
		{"fig15", RunFig15With},
	}
	for _, fg := range figs {
		sb.WriteString("== " + fg.name + " ==\n")
		f := fg.run(sz, windows, RunSerial)
		f.Render(&sb)
		if err := f.WriteCSV(&sb); err != nil {
			t.Fatalf("%s: WriteCSV: %v", fg.name, err)
		}
	}
	got := sb.String()
	if os.Getenv("UPDATE_GOLDEN") == "1" {
		if err := os.WriteFile("testdata/figures_quick_golden.txt", []byte(got), 0o644); err != nil {
			t.Fatalf("updating golden file: %v", err)
		}
		t.Log("golden file regenerated; review the diff and mention the model change in the commit")
		return
	}
	want, err := os.ReadFile("testdata/figures_quick_golden.txt")
	if err != nil {
		t.Fatalf("reading golden file: %v", err)
	}
	if got == string(want) {
		return
	}
	gotLines := strings.Split(got, "\n")
	wantLines := strings.Split(string(want), "\n")
	n := len(gotLines)
	if len(wantLines) < n {
		n = len(wantLines)
	}
	for i := 0; i < n; i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("figure output diverged from golden at line %d:\n got:  %s\n want: %s",
				i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("figure output length diverged from golden: got %d lines, want %d",
		len(gotLines), len(wantLines))
}
