package harness

import (
	"context"
	"fmt"
	"time"

	"repro/internal/workload"
)

// E21NemesisScenarios drives the seeded chaos engine (internal/nemesis)
// against the live sharded/batched/leased KV cluster: each row is one
// pinned-seed scenario — a lease-holder crash/restart, an asymmetric
// partition, and the combined acceptance scenario (crash + asymmetric
// partition + gray link) — run with dedicated probe clients whose routed
// operations are recorded in a lincheck history. A row only renders if the
// run passes its closing checks: the probe history linearizable under
// Wing–Gong, zero graceful-degradation violations (every steady quorate
// second served operations; reads kept succeeding after the lease holder
// was killed). The same seeds replay the same timelines, so the table is a
// committed chaos regression matrix, not a flaky soak.
func E21NemesisScenarios(ctx context.Context, cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := NewTable("E21", "Nemesis scenarios: seeded chaos against the sharded/batched/leased KV, lincheck-closed",
		"scenario", "events", "probe ops", "reads", "errors", "linearizable", "degradation")

	base := workload.Config{
		Protocol: workload.ProtocolKV,
		Net:      workload.NetMem,
		Seed:     cfg.Seed,
		MinDelay: cfg.MinDelay,
		MaxDelay: cfg.MaxDelay,
		Tick:     cfg.Tick,
		ViewC:    cfg.ViewC,
		Clients:  4,
		// Open loop at a modest rate: a closed-loop batched run saturates
		// the write pipeline mid-scenario and the probes would measure
		// queueing, not chaos recovery.
		Rate:        200,
		Keys:        16,
		Shards:      2,
		Batch:       8,
		Lease:       400 * time.Millisecond,
		NemesisSeed: 7,
		OpTimeout:   2 * time.Second,
	}

	rows := []struct {
		label    string
		spec     string
		duration time.Duration
	}{
		// Process 0 is the chaos shard's lease holder, so the crash is a
		// holder kill: reads must fall back to shared barriers.
		{"holder-crash", "crash(0)@0.1..0.4", 4 * time.Second},
		{"asym-partition", "apart(1|2)@0.1..0.5", 4 * time.Second},
		// The acceptance scenario; a second longer so a steady post-chaos
		// bucket survives the settle margins around six events.
		{"combined-chaos", "crash(0)@0.05..0.35; apart(1|2)@0.1..0.4; gray(0-2, 1ms, 0.1)@0.1..0.5", 5 * time.Second},
	}
	for _, row := range rows {
		wc := base
		wc.Nemesis = row.spec
		wc.Duration = row.duration
		r, err := workload.Run(ctx, wc)
		if err != nil {
			return nil, fmt.Errorf("E21 %s: %w", row.label, err)
		}
		nm := r.Nemesis
		if nm == nil {
			return nil, fmt.Errorf("E21 %s: run produced no nemesis report", row.label)
		}
		if !nm.Linearizable {
			return nil, fmt.Errorf("E21 %s: probe history not linearizable: %s", row.label, nm.LincheckError)
		}
		if len(nm.DegradationViolations) > 0 {
			return nil, fmt.Errorf("E21 %s: degradation violations: %v", row.label, nm.DegradationViolations)
		}
		if nm.ProbeOps == 0 {
			return nil, fmt.Errorf("E21 %s: probes completed no operations", row.label)
		}
		t.AddRow(row.label,
			fmt.Sprintf("%d", len(nm.Events)),
			fmt.Sprintf("%d", nm.ProbeOps),
			fmt.Sprintf("%d", nm.ProbeReads),
			fmt.Sprintf("%d", nm.ProbeErrors),
			yesNo(nm.Linearizable),
			fmt.Sprintf("%d violations", len(nm.DegradationViolations)),
		)
	}
	t.AddNote("Each scenario is compiled from its spec with nemesis seed 7 — the same seed replays the identical fault timeline. Two probe clients issue routed linearizable reads (leased fast path with shared-barrier fallback) and writes against the chaos shard throughout; their history closes the run under the Wing–Gong checker and their per-second success counts carry the graceful-degradation obligations. gqsload -nemesis runs the same scenarios from the command line.")
	return t, nil
}
