package workload

import (
	"context"
	"encoding/json"
	"strings"
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

// TestRunValidation checks that Validate, the one check of a Config,
// rejects every bad setup before Run deploys anything. The table holds each
// flag combination gqsload rejects, as the Config its flags bind to (an
// explicit 0 for -shards, -clients or -duration arrives as -1).
func TestRunValidation(t *testing.T) {
	nem := "crash(1)@0.5"
	bad := []struct {
		name string
		cfg  Config
	}{
		{"unknown protocol", Config{Protocol: "paxos"}},
		{"unknown net", Config{Net: "carrier-pigeon"}},
		{"unknown dist", Config{Dist: "pareto"}},
		{"pattern out of range", Config{Pattern: 7}},
		{"pattern over tcp", Config{Pattern: 1, Net: NetTCP}},
		{"pattern on 5 nodes", Config{Pattern: 1, Nodes: 5}},
		{"uf without pattern", Config{RestrictToUf: true}},
		{"fault fraction without pattern", Config{FaultFrac: 0.2}},
		{"fault fraction at 1", Config{Pattern: 1, FaultFrac: 1}},
		{"read fraction above 1", Config{ReadFraction: 1.5}},
		{"shards zero", Config{Protocol: ProtocolKV, Shards: -1}},
		{"shards negative", Config{Protocol: ProtocolKV, Shards: -2}},
		{"shards with register", Config{Protocol: ProtocolRegister, Shards: 4}},
		{"negative rate", Config{Rate: -5}},
		{"no clients", Config{Clients: -1}},
		{"zero duration", Config{Duration: -1}},
		{"negative warmup", Config{Warmup: -time.Second}},
		{"negative keys", Config{Keys: -3}},
		{"zipf s without zipf", Config{Dist: DistUniform, ZipfS: 1.2}},
		{"zipf s at 1", Config{Dist: DistZipf, ZipfS: 1}},
		{"slots with register", Config{Protocol: ProtocolRegister, Slots: 64}},
		{"sync reads with snapshot", Config{Protocol: ProtocolSnapshot, SyncReads: true}},
		{"lattice pool with kv", Config{Protocol: ProtocolKV, LatticePool: 4}},
		{"delay with tcp", Config{Net: NetTCP, MinDelay: time.Millisecond}},
		{"min delay above default max", Config{MinDelay: time.Millisecond}},
		{"inverted delay bounds", Config{MinDelay: 2 * time.Millisecond, MaxDelay: time.Millisecond}},
		{"negative delay", Config{MaxDelay: -time.Millisecond}},
		{"negative batch", Config{Protocol: ProtocolKV, Batch: -1}},
		{"negative pipeline", Config{Protocol: ProtocolKV, Pipeline: -2}},
		{"batch with register", Config{Protocol: ProtocolRegister, Batch: 8}},
		{"pipeline with snapshot", Config{Protocol: ProtocolSnapshot, Pipeline: 4}},
		{"lease with register", Config{Protocol: ProtocolRegister, Lease: time.Second}},
		{"negative lease", Config{Protocol: ProtocolKV, Lease: -time.Second}},
		{"nemesis with register", Config{Protocol: ProtocolRegister, Nemesis: nem}},
		{"nemesis over tcp", Config{Protocol: ProtocolKV, Net: NetTCP, Nemesis: nem}},
		{"nemesis with pattern", Config{Protocol: ProtocolKV, Pattern: 1, Nemesis: nem}},
		{"nemesis seed without nemesis", Config{Protocol: ProtocolKV, NemesisSeed: 7}},
	}
	for _, tc := range bad {
		cfg := tc.cfg
		if cfg.Duration == 0 {
			cfg.Duration = 10 * time.Millisecond
		}
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: bad config %+v passes Validate", tc.name, cfg)
		}
		if _, err := Run(context.Background(), cfg); err == nil || !strings.Contains(err.Error(), "workload config") {
			t.Errorf("%s: Run error %v, want the Validate rejection", tc.name, err)
		}
	}
	// A bare window is honoured: every kv write goes through group commit.
	cfg := Config{Protocol: ProtocolKV, BatchWindow: 2 * time.Millisecond, Duration: 10 * time.Millisecond}
	if err := cfg.Validate(); err != nil {
		t.Errorf("bare batch window rejected: %v", err)
	}
}
