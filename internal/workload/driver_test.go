package workload

import (
	"context"
	"encoding/json"
	"testing"
	"time"
)

// fastCfg returns a small deterministic config suitable for unit tests.
func fastCfg() Config {
	return Config{
		Protocol: ProtocolRegister,
		Net:      NetMem,
		Clients:  4,
		Duration: 300 * time.Millisecond,
		Warmup:   50 * time.Millisecond,
		Keys:     8,
		Seed:     42,
		MinDelay: 5 * time.Microsecond,
		MaxDelay: 50 * time.Microsecond,
		Tick:     500 * time.Microsecond,
	}
}

// TestRunRegisterClosedLoop is the deterministic seeded end-to-end run: a
// closed-loop register workload on the Figure-1 MemNetwork cluster must
// complete with operations recorded, no errors, and internally consistent
// metrics.
func TestRunRegisterClosedLoop(t *testing.T) {
	r, err := Run(context.Background(), fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalOps == 0 {
		t.Fatal("no operations completed")
	}
	if r.Errors["read"] != 0 || r.Errors["write"] != 0 {
		t.Fatalf("unexpected errors: %v", r.Errors)
	}
	if r.Latency.Count != r.Reads.Count+r.Writes.Count {
		t.Errorf("latency count %d != reads %d + writes %d",
			r.Latency.Count, r.Reads.Count, r.Writes.Count)
	}
	if r.Latency.P50Ms <= 0 || r.Latency.P99Ms < r.Latency.P50Ms {
		t.Errorf("implausible percentiles: p50=%v p99=%v", r.Latency.P50Ms, r.Latency.P99Ms)
	}
	var total uint64
	for _, c := range r.ThroughputPerSec {
		total += c
	}
	if total != r.TotalOps {
		t.Errorf("throughput series sums to %d, want %d", total, r.TotalOps)
	}

	// The report must round-trip through JSON.
	raw, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.TotalOps != r.TotalOps || back.Protocol != "register" {
		t.Errorf("JSON round trip mangled the report: %+v", back)
	}
}

// TestRunOpenLoopRate checks the open-loop pacer bounds throughput near the
// target rate (wide tolerance: the mem network and scheduler add jitter).
func TestRunOpenLoopRate(t *testing.T) {
	cfg := fastCfg()
	cfg.Rate = 200
	cfg.Duration = 500 * time.Millisecond
	r, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The hard property is the pacing ceiling; the floor only asserts
	// liveness (slow machines — e.g. under the race detector — legitimately
	// complete far fewer than scheduled).
	want := cfg.Rate * cfg.Duration.Seconds()
	if got := float64(r.TotalOps); got == 0 || got > want*1.7 {
		t.Errorf("open loop completed %v ops, want (0, ~%v]", got, want)
	}
	if r.Mode != "open" {
		t.Errorf("mode = %q, want open", r.Mode)
	}
}

// TestRunZipfDistribution checks the engine accepts the Zipfian key
// distribution end to end.
func TestRunZipfDistribution(t *testing.T) {
	cfg := fastCfg()
	cfg.Dist = DistZipf
	cfg.Duration = 200 * time.Millisecond
	r, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalOps == 0 {
		t.Fatal("no operations completed")
	}
	if r.Dist != string(DistZipf) {
		t.Errorf("dist = %q, want zipf", r.Dist)
	}
}

// TestRunFaultInjectionUf injects Figure 1's f1 mid-run with clients
// restricted to U_f1 = {a, b}: the paper guarantees wait-freedom there, so
// the run must stay error-free across the injection.
func TestRunFaultInjectionUf(t *testing.T) {
	cfg := fastCfg()
	cfg.Duration = 400 * time.Millisecond
	cfg.Pattern = 1
	cfg.FaultFrac = 0.25
	cfg.RestrictToUf = true
	r, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalOps == 0 {
		t.Fatal("no operations completed")
	}
	if r.Errors["read"] != 0 || r.Errors["write"] != 0 {
		t.Fatalf("errors within U_f after injecting %s: %v", r.Pattern, r.Errors)
	}
	if r.Pattern != "f1" {
		t.Errorf("pattern = %q, want f1", r.Pattern)
	}
	if len(r.Callers) != 2 {
		t.Errorf("callers = %v, want the two U_f1 members", r.Callers)
	}
}

// TestRunKV drives the SMR key-value store: every write is a consensus slot
// decision.
func TestRunKV(t *testing.T) {
	if raceEnabled {
		t.Skip("kv writes are full consensus decisions; race-mode scheduling starves them on small runners")
	}
	cfg := fastCfg()
	cfg.Protocol = ProtocolKV
	cfg.Clients = 2
	cfg.Duration = 400 * time.Millisecond
	// Commits are RTT-bound (leader forwarding): even a 400ms window with 2
	// clients decides hundreds of slots, so capacity must be sized for the
	// achieved rate, not the old view-bound one.
	cfg.Slots = 2048
	cfg.ViewC = 3 * time.Millisecond
	// No warmup and a generous op timeout: every started op is recorded
	// even when the race detector stretches latencies past the window.
	cfg.Warmup = 0
	cfg.OpTimeout = 30 * time.Second
	r, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalOps == 0 {
		t.Fatal("no operations completed")
	}
	if r.Errors["write"] != 0 {
		t.Errorf("write errors: %v", r.Errors)
	}
}

// TestRunLattice drives the single-shot lattice agreement pool: every op
// proposes on the next staggered pool object. Regression guard for the two
// pool sizing/contention cliffs (oversized pools saturate propagation;
// cross-node object sharing makes the AHR loop chase rising joins).
func TestRunLattice(t *testing.T) {
	if raceEnabled {
		t.Skip("lattice proposes need ~10 sequential quorum rounds each; race-mode scheduling starves them on small runners")
	}
	cfg := fastCfg()
	cfg.Protocol = ProtocolLattice
	cfg.Duration = 400 * time.Millisecond
	cfg.Warmup = 0
	cfg.OpTimeout = 30 * time.Second
	// A 500µs tick re-propagates the pool's 32 register states faster than
	// slow runners (race detector) can apply them, so the node loops fall
	// behind without bound; the production default keeps the test honest.
	cfg.Tick = 2 * time.Millisecond
	r, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalOps == 0 {
		t.Fatal("no operations completed")
	}
	if errs := r.Errors["read"] + r.Errors["write"]; errs > 0 {
		t.Errorf("propose errors: %v", r.Errors)
	}
}

// TestRunKVBatchedPipelined drives the group-commit path end to end: Sets
// coalesce into shared consensus rounds, clients keep several writes in
// flight, and the run completes without errors while the report records the
// batch configuration.
func TestRunKVBatchedPipelined(t *testing.T) {
	if raceEnabled {
		t.Skip("kv writes are full consensus decisions; race-mode scheduling starves them on small runners")
	}
	cfg := fastCfg()
	cfg.Protocol = ProtocolKV
	cfg.Clients = 4
	cfg.Duration = 400 * time.Millisecond
	cfg.Slots = 2048
	cfg.ViewC = 3 * time.Millisecond
	cfg.ReadFraction = -1 // write-only: every op exercises the batcher
	cfg.Batch = 8
	cfg.BatchWindow = time.Millisecond
	cfg.Pipeline = 4
	cfg.Warmup = 0
	cfg.OpTimeout = 30 * time.Second
	r, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalOps == 0 {
		t.Fatal("no operations completed")
	}
	if r.Errors["write"] != 0 {
		t.Errorf("write errors: %v", r.Errors)
	}
	if r.Batch != 8 || r.Pipeline != 4 {
		t.Errorf("report lost the batch configuration: batch=%d pipeline=%d", r.Batch, r.Pipeline)
	}
	if r.Writes.Count != r.TotalOps {
		t.Errorf("write-only run recorded %d writes of %d ops", r.Writes.Count, r.TotalOps)
	}
}

// TestRunKVLeased drives the leased read path end to end: the run deploys
// with a read lease, reads route through leased local reads at the holder or
// shared barriers elsewhere, and completes without errors.
func TestRunKVLeased(t *testing.T) {
	if raceEnabled {
		t.Skip("kv writes are full consensus decisions; race-mode scheduling starves them on small runners")
	}
	cfg := fastCfg()
	cfg.Protocol = ProtocolKV
	cfg.Clients = 4
	cfg.Duration = 400 * time.Millisecond
	cfg.Slots = 2048
	cfg.ViewC = 3 * time.Millisecond
	cfg.ReadFraction = 0.9
	cfg.Lease = 300 * time.Millisecond
	cfg.Warmup = 0
	cfg.OpTimeout = 30 * time.Second
	r, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalOps == 0 {
		t.Fatal("no operations completed")
	}
	if errs := r.Errors["read"] + r.Errors["write"]; errs > 0 {
		t.Errorf("op errors: %v", r.Errors)
	}
	if r.Reads.Count == 0 {
		t.Fatal("read-heavy leased run recorded no reads")
	}
}

// TestRunValidation checks config validation surfaces bad setups.
func TestRunValidation(t *testing.T) {
	bad := []Config{
		{Protocol: "paxos"},
		{Net: "carrier-pigeon"},
		{Pattern: 7},
		{Pattern: 1, Net: NetTCP},
		{Pattern: 1, Nodes: 5},
		{RestrictToUf: true},
		{Dist: "pareto"},
		{ReadFraction: 1.5},
		{Batch: -1},
		{Pipeline: -3},
		{Protocol: ProtocolRegister, Batch: 8},
		{Protocol: ProtocolSnapshot, Pipeline: 4},
		{Protocol: ProtocolRegister, Lease: time.Second},
		{Protocol: ProtocolKV, Lease: -time.Second},
	}
	for i, cfg := range bad {
		cfg.Duration = 10 * time.Millisecond
		if _, err := Run(context.Background(), cfg); err == nil {
			t.Errorf("case %d: bad config %+v accepted", i, cfg)
		}
	}
	// A bare window is honoured: every kv write goes through group commit.
	cfg := Config{Protocol: ProtocolKV, BatchWindow: 2 * time.Millisecond, Duration: 10 * time.Millisecond}.withDefaults()
	if err := cfg.validate(); err != nil {
		t.Errorf("bare batch window rejected: %v", err)
	}
}
