package exp

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/figures.golden from this run")

// goldenScale is the scale the counted-results golden is recorded at.
const goldenScale = 0.0005

// TestFiguresGolden pins the paper's counted results: at goldenScale,
// every (figure, x, series) cell of Figures 7–10 and 12–14 and of both
// ablations must report the simulated I/Os, skyline size and dominance
// checks recorded in testdata/figures.golden. The wall-clock columns
// and Figure 11 (all timings) stay out. A change to a checker's
// counting, to the simulated-I/O clock or to a baseline's traversal
// fails here; when the change is meant, rewrite the file with
//
//	go test -run TestFiguresGolden ./internal/exp -update
func TestFiguresGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweeps")
	}
	got := countedLines(goldenScale)
	path := filepath.Join("testdata", "figures.golden")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (rewrite it with -update)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotLines := strings.Split(strings.TrimSuffix(string(got), "\n"), "\n")
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	shown := 0
	for i := range max(len(gotLines), len(wantLines)) {
		g, w := line(gotLines, i), line(wantLines, i)
		if g != w && shown < 10 {
			t.Errorf("line %d:\n got  %q\n want %q", i+1, g, w)
			shown++
		}
	}
	t.Errorf("counted results differ from %s (%d lines, golden %d)", path, len(gotLines), len(wantLines))
}

// countedLines runs the sweeps and renders one sorted line per cell
// with its counted columns.
func countedLines(scale float64) []byte {
	var rows []Row
	for _, fig := range []func(float64) []Row{Figure7, Figure8, Figure9, Figure10, Figure12, Figure13, Figure14, Ablations} {
		rows = append(rows, fig(scale)...)
	}
	lines := make([]string, len(rows))
	for i, r := range rows {
		lines[i] = fmt.Sprintf("%s x=%s %s ios=%d skyline=%d checks=%d", r.Figure, r.X, r.Series, r.IOs, r.Skyline, r.Checks)
	}
	slices.Sort(lines)
	return []byte(strings.Join(lines, "\n") + "\n")
}

// line is lines[i], or "" past the end.
func line(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return ""
}
