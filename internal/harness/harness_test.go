package harness

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/quorum"
)

func fastCfg() Config {
	return Config{
		Seed:     3,
		MinDelay: 5 * time.Microsecond,
		MaxDelay: 50 * time.Microsecond,
		Tick:     500 * time.Microsecond,
		ViewC:    5 * time.Millisecond,
	}
}

func TestTableRender(t *testing.T) {
	tbl := NewTable("T1", "demo", "col-a", "b")
	tbl.AddRow("x", "yyyyyy")
	tbl.AddRow("longer-cell") // short row: missing cells render empty
	tbl.AddNote("note %d", 42)
	var buf bytes.Buffer
	tbl.Render(&buf)
	out := buf.String()
	for _, want := range []string{"T1 — demo", "col-a", "yyyyyy", "longer-cell", "note: note 42"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestTableMarkdown(t *testing.T) {
	tbl := NewTable("T2", "md", "a", "b")
	tbl.AddRow("1", "2")
	tbl.AddNote("hello")
	var buf bytes.Buffer
	tbl.Markdown(&buf)
	out := buf.String()
	for _, want := range []string{"### T2 — md", "| a | b |", "| --- | --- |", "| 1 | 2 |", "*hello*"} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q:\n%s", want, out)
		}
	}
}

func TestHelpers(t *testing.T) {
	if yesNo(true) != "yes" || yesNo(false) != "no" {
		t.Error("yesNo broken")
	}
	if got := ms(1500 * time.Microsecond); got != "1.50ms" {
		t.Errorf("ms = %q", got)
	}
	if pad("ab", 4) != "ab  " || pad("abcd", 2) != "abcd" {
		t.Error("pad broken")
	}
}

// TestExperiments checks the registry itself: every entry has a Run and
// no ID is listed twice.
func TestExperiments(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Experiments {
		if e.Run == nil {
			t.Errorf("experiment %s has no Run", e.ID)
		}
		if seen[e.ID] {
			t.Errorf("experiment ID %s registered twice", e.ID)
		}
		seen[e.ID] = true
	}
}

// Each registry entry runs under one of three tests, named for the classes
// the experiments were first written in: the pure (non-cluster) checks, the
// light cluster runs, and the rest. The grouping only keeps the test names
// stable; Heavy alone decides what -short skips.
func testGroup(id string) string {
	switch id {
	case "E01", "E02", "E03", "E09":
		return "pure"
	case "E04", "E05", "E06", "E11":
		return "cluster"
	}
	return "heavy"
}

func TestPureExperiments(t *testing.T)         { runExperiments(t, "pure") }
func TestClusterExperiments(t *testing.T)      { runExperiments(t, "cluster") }
func TestHeavyClusterExperiments(t *testing.T) { runExperiments(t, "heavy") }

// runExperiments runs the registry entries of one test group with fast
// settings; -short skips the Heavy ones.
func runExperiments(t *testing.T, group string) {
	wantRows := map[string]int{"E01": 4, "E02": 2, "E09": 7}
	for _, e := range Experiments {
		if testGroup(e.ID) != group {
			continue
		}
		t.Run(e.ID, func(t *testing.T) {
			if e.Heavy && testing.Short() {
				t.Skip("Heavy experiment skipped in -short mode")
			}
			tbl, err := e.Run(context.Background(), fastCfg())
			if err != nil {
				t.Fatal(err)
			}
			if tbl.ID != e.ID {
				t.Errorf("table ID %s under registry ID %s", tbl.ID, e.ID)
			}
			if len(tbl.Rows) == 0 {
				t.Fatal("no rows")
			}
			if want, ok := wantRows[e.ID]; ok && len(tbl.Rows) != want {
				t.Errorf("%d rows, want %d", len(tbl.Rows), want)
			}
		})
	}
}

func TestClusterStopIsClean(t *testing.T) {
	// Building every cluster type and stopping immediately must not leak or
	// deadlock.
	cfg := fastCfg()
	qsReads, qsWrites := figure1Quorums()
	NewRegisterCluster(4, qsReads, qsWrites, false, cfg).Stop()
	NewRegisterCluster(4, qsReads, qsWrites, true, cfg).Stop()
	NewSnapshotCluster(4, qsReads, qsWrites, cfg).Stop()
	NewConsensusCluster(4, qsReads, qsWrites, cfg).Stop()
}

func figure1Quorums() (reads, writes []graph.BitSet) {
	qs := quorum.Figure1()
	return qs.Reads, qs.Writes
}
