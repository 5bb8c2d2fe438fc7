package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/workload"
)

// TestRunJSON drives a tiny closed-loop register workload and checks the
// JSON report carries throughput, percentiles and error counts.
func TestRunJSON(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-protocol", "register", "-net", "mem",
		"-clients", "2", "-duration", "200ms", "-keys", "4",
		"-seed", "7", "-json",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	var report struct {
		TotalOps  uint64            `json:"total_ops"`
		OpsPerSec float64           `json:"ops_per_sec"`
		Latency   map[string]any    `json:"latency"`
		Errors    map[string]uint64 `json:"errors"`
	}
	if err := json.Unmarshal(out.Bytes(), &report); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.String())
	}
	if report.TotalOps == 0 || report.OpsPerSec <= 0 {
		t.Errorf("no throughput in report: %s", out.String())
	}
	for _, k := range []string{"p50_ms", "p99_ms"} {
		if _, ok := report.Latency[k]; !ok {
			t.Errorf("latency summary missing %q", k)
		}
	}
	if _, ok := report.Errors["write"]; !ok {
		t.Error("error counts missing")
	}
}

// TestRunText checks the human-readable rendering mentions throughput and
// percentiles.
func TestRunText(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-protocol", "snapshot", "-clients", "2", "-duration", "200ms", "-keys", "4",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ops/sec", "p50", "p99"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("text report missing %q:\n%s", want, out.String())
		}
	}
}

// TestRunBadFlags checks invalid configurations are rejected.
func TestRunBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-protocol", "paxos", "-duration", "10ms"},
		{"-pattern", "1", "-net", "tcp", "-duration", "10ms"},
		{"-dist", "pareto", "-duration", "10ms"},
	} {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestRunFlagCombinationValidation checks combinations the engine would
// silently ignore (or misread) fail fast with a flag-naming error before any
// cluster spins up, and that the good variants still pass flag validation.
func TestRunFlagCombinationValidation(t *testing.T) {
	bad := []struct {
		name string
		args []string
	}{
		{"zero nodes", []string{"-nodes", "0", "-duration", "10ms"}},
		{"shards < 1", []string{"-protocol", "kv", "-shards", "0", "-duration", "10ms"}},
		{"shards negative", []string{"-protocol", "kv", "-shards", "-2", "-duration", "10ms"}},
		{"shards with register", []string{"-protocol", "register", "-shards", "4", "-duration", "10ms"}},
		{"negative rate", []string{"-rate", "-5", "-duration", "10ms"}},
		{"no clients", []string{"-clients", "0", "-duration", "10ms"}},
		{"zero duration", []string{"-duration", "0s"}},
		{"negative warmup", []string{"-warmup", "-1s", "-duration", "10ms"}},
		{"negative keys", []string{"-keys", "-3", "-duration", "10ms"}},
		{"zipf-s without zipf", []string{"-dist", "uniform", "-zipf-s", "1.2", "-duration", "10ms"}},
		{"uf without pattern", []string{"-uf", "-duration", "10ms"}},
		{"fault-at without pattern", []string{"-fault-at", "0.2", "-duration", "10ms"}},
		{"slots with register", []string{"-protocol", "register", "-slots", "64", "-duration", "10ms"}},
		{"sync-reads with snapshot", []string{"-protocol", "snapshot", "-sync-reads", "-duration", "10ms"}},
		{"lattice-pool with kv", []string{"-protocol", "kv", "-lattice-pool", "4", "-duration", "10ms"}},
		{"delay flags with tcp", []string{"-net", "tcp", "-min-delay", "1ms", "-duration", "10ms"}},
		{"pattern out of range", []string{"-pattern", "7", "-duration", "10ms"}},
		{"readfrac above 1", []string{"-readfrac", "1.5", "-duration", "10ms"}},
		{"fault-at at 1", []string{"-pattern", "1", "-fault-at", "1", "-duration", "10ms"}},
		{"zipf-s at 1", []string{"-dist", "zipf", "-zipf-s", "1", "-duration", "10ms"}},
		{"min-delay above default max", []string{"-min-delay", "1ms", "-duration", "10ms"}},
		{"inverted delay bounds", []string{"-min-delay", "2ms", "-max-delay", "1ms", "-duration", "10ms"}},
		{"negative delay", []string{"-max-delay", "-1ms", "-duration", "10ms"}},
		{"batch with register", []string{"-protocol", "register", "-batch", "16", "-duration", "10ms"}},
		{"pipeline with snapshot", []string{"-protocol", "snapshot", "-pipeline", "4", "-duration", "10ms"}},
		{"negative batch", []string{"-protocol", "kv", "-batch", "-1", "-duration", "10ms"}},
		{"negative pipeline", []string{"-protocol", "kv", "-pipeline", "-2", "-duration", "10ms"}},
		{"lease with register", []string{"-protocol", "register", "-lease", "1s", "-duration", "10ms"}},
		{"negative lease", []string{"-protocol", "kv", "-lease", "-1s", "-duration", "10ms"}},
		{"nemesis with register", []string{"-protocol", "register", "-nemesis", "crash(1)@0.5", "-duration", "10ms"}},
		{"nemesis with tcp", []string{"-protocol", "kv", "-net", "tcp", "-nemesis", "crash(1)@0.5", "-duration", "10ms"}},
		{"nemesis with pattern", []string{"-protocol", "kv", "-pattern", "1", "-nemesis", "crash(1)@0.5", "-duration", "10ms"}},
		{"nemesis-seed without nemesis", []string{"-protocol", "kv", "-nemesis-seed", "7", "-duration", "10ms"}},
	}
	for _, tc := range bad {
		err := run(tc.args, &bytes.Buffer{})
		if err == nil {
			t.Errorf("%s: args %v accepted", tc.name, tc.args)
			continue
		}
		if !strings.Contains(err.Error(), "invalid flags") {
			t.Errorf("%s: rejected by the engine, not flag validation: %v", tc.name, err)
		}
	}
	// A bare window is honoured: every kv write goes through group commit.
	args := []string{"-protocol", "kv", "-batch-window", "2ms", "-clients", "1", "-duration", "10ms"}
	if err := run(args, &bytes.Buffer{}); err != nil {
		t.Errorf("batch-window without batch: args %v rejected: %v", args, err)
	}
}

// TestRunNemesisJSON drives a short seeded chaos run and checks the JSON
// report carries the nemesis section: the injected timeline and the
// closing-check verdicts.
func TestRunNemesisJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos kv run skipped in -short mode")
	}
	var out bytes.Buffer
	err := run([]string{
		"-protocol", "kv", "-clients", "2", "-rate", "100",
		"-duration", "1s", "-keys", "8",
		"-nemesis", "crash(3)@0.2..0.5", "-nemesis-seed", "9",
		"-seed", "3", "-json",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	var report struct {
		Nemesis *struct {
			Spec         string `json:"spec"`
			Seed         int64  `json:"seed"`
			Linearizable bool   `json:"linearizable"`
			Events       []struct {
				Kind   string `json:"kind"`
				Target string `json:"target"`
			} `json:"events"`
		} `json:"nemesis"`
	}
	if err := json.Unmarshal(out.Bytes(), &report); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.String())
	}
	nm := report.Nemesis
	if nm == nil {
		t.Fatalf("report missing nemesis section: %s", out.String())
	}
	if nm.Seed != 9 || len(nm.Events) != 2 || !nm.Linearizable {
		t.Fatalf("nemesis section wrong: %+v", nm)
	}
	if nm.Events[0].Kind != "crash" || nm.Events[1].Kind != "restart" || nm.Events[0].Target != "p3" {
		t.Fatalf("injected timeline wrong: %+v", nm.Events)
	}
}

// TestRunNemesisBadSpec checks a malformed scenario fails fast in engine
// validation (before any cluster spins up) with the clause in the error.
func TestRunNemesisBadSpec(t *testing.T) {
	err := run([]string{
		"-protocol", "kv", "-nemesis", "meteor(3)@0.2", "-duration", "10ms",
	}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "unknown event kind") {
		t.Fatalf("bad spec error = %v, want the offending clause named", err)
	}
}

// TestNemesisVerdictExit checks a failed chaos run surfaces as a non-zero
// exit whose error names the violated obligations and carries the
// offending history, after the report has been emitted.
func TestNemesisVerdictExit(t *testing.T) {
	rep := &workload.Report{Nemesis: &workload.NemesisReport{
		Spec:          "crash(0)@0.2",
		Seed:          4,
		Linearizable:  false,
		LincheckError: "key \"nem3\": sub-history not linearizable:\np0 write(a) ...",
		DegradationViolations: []string{
			"availability: bucket [5s, 6s) has residual quorum but zero successful operations",
		},
	}}
	err := nemesisVerdict(rep)
	if err == nil {
		t.Fatal("failed nemesis run exited zero")
	}
	for _, want := range []string{"nemesis run failed", "not linearizable", "nem3", "availability"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("verdict error missing %q: %v", want, err)
		}
	}
	if err := nemesisVerdict(&workload.Report{}); err != nil {
		t.Fatalf("non-nemesis run failed verdict: %v", err)
	}
	rep.Nemesis.Linearizable = true
	rep.Nemesis.LincheckError = ""
	rep.Nemesis.DegradationViolations = nil
	if err := nemesisVerdict(rep); err != nil {
		t.Fatalf("clean nemesis run failed verdict: %v", err)
	}
}

// TestRunBatchedJSON drives a tiny batched+pipelined kv run and checks the
// report records the group-commit configuration and completes writes.
func TestRunBatchedJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("batched kv run skipped in -short mode")
	}
	var out bytes.Buffer
	err := run([]string{
		"-protocol", "kv", "-clients", "4", "-readfrac", "0",
		"-batch", "8", "-batch-window", "2ms", "-pipeline", "4",
		"-duration", "500ms", "-keys", "16", "-slots", "64",
		"-seed", "3", "-json",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	var report struct {
		TotalOps uint64 `json:"total_ops"`
		Batch    int    `json:"batch"`
		Pipeline int    `json:"pipeline"`
	}
	if err := json.Unmarshal(out.Bytes(), &report); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.String())
	}
	if report.TotalOps == 0 {
		t.Errorf("batched run completed no operations: %s", out.String())
	}
	if report.Batch != 8 || report.Pipeline != 4 {
		t.Errorf("report missing batch configuration: %s", out.String())
	}
}

// TestRunCompactJSON drives a sustained-write kv run whose write count
// exceeds the slot budget several times over and checks the report carries
// the compaction section every kv run has: compaction kept recycling slots
// (zero write errors past the budget) and bounded the live window.
func TestRunCompactJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("compacting kv run skipped in -short mode")
	}
	var out bytes.Buffer
	err := run([]string{
		"-protocol", "kv", "-clients", "4", "-readfrac", "0",
		"-batch", "8", "-batch-window", "1ms", "-pipeline", "4",
		"-slots", "64",
		"-duration", "1s", "-keys", "16",
		"-seed", "3", "-json",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	var report struct {
		TotalOps   uint64            `json:"total_ops"`
		Errors     map[string]uint64 `json:"errors"`
		Compaction *struct {
			Interval      int64  `json:"interval"`
			SlotBudget    int    `json:"slot_budget"`
			Checkpoints   uint64 `json:"checkpoints"`
			Truncations   uint64 `json:"truncations"`
			SlotsFreed    uint64 `json:"slots_freed"`
			PeakOccupancy int64  `json:"peak_occupancy"`
		} `json:"compaction"`
	}
	if err := json.Unmarshal(out.Bytes(), &report); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.String())
	}
	c := report.Compaction
	if c == nil {
		t.Fatalf("report missing compaction section: %s", out.String())
	}
	if report.Errors["write"] != 0 {
		t.Errorf("compacting run hit %d write errors: %s", report.Errors["write"], out.String())
	}
	if report.TotalOps <= uint64(c.SlotBudget) {
		t.Errorf("run too small to exercise compaction: %d ops within budget %d", report.TotalOps, c.SlotBudget)
	}
	if c.Checkpoints == 0 || c.Truncations == 0 || c.SlotsFreed == 0 {
		t.Errorf("compaction idle under sustained writes: %+v", c)
	}
	if c.PeakOccupancy > int64(c.SlotBudget) {
		t.Errorf("peak occupancy %d exceeds the window budget %d", c.PeakOccupancy, c.SlotBudget)
	}
}

// TestRunShardedJSON drives a tiny 2-shard kv run and checks the report
// carries the per-shard sections.
func TestRunShardedJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("sharded kv run skipped in -short mode")
	}
	var out bytes.Buffer
	err := run([]string{
		"-protocol", "kv", "-shards", "2", "-clients", "4",
		"-duration", "500ms", "-keys", "16", "-slots", "48",
		"-seed", "3", "-json",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	var report struct {
		TotalOps uint64 `json:"total_ops"`
		Shards   int    `json:"shards"`
		PerShard []struct {
			Shard int            `json:"shard"`
			Ops   uint64         `json:"ops"`
			Lat   map[string]any `json:"latency"`
		} `json:"per_shard"`
	}
	if err := json.Unmarshal(out.Bytes(), &report); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.String())
	}
	if report.Shards != 2 || len(report.PerShard) != 2 {
		t.Fatalf("per-shard sections missing: %s", out.String())
	}
	var sum uint64
	for _, s := range report.PerShard {
		sum += s.Ops
	}
	if sum != report.TotalOps {
		t.Errorf("per-shard ops sum %d != total %d", sum, report.TotalOps)
	}
}
