package harness

import (
	"context"
	"fmt"
	"time"

	"repro/internal/workload"
)

// E19BatchingSweep measures group-commit batching and pipelined appends on
// a single quorum-system group (internal/smr batch.go): write throughput vs
// the batch-size cap at a fixed 1ms one-way delay. At batch=1 every Set
// gets its own slot and throughput is pinned near 1/RTT per outstanding
// slot; with group commit one round carries the whole batch, so
// the ceiling rises with the batch size until the 1-CPU host (not the
// network) saturates. Delays are pinned (min = max = 1ms) so the sweep is
// latency-bound and the speedup column measures round-trip amortization,
// not simulator scheduling. Client concurrency is equal across rows —
// exactly the comparison the batching acceptance criterion names.
func E19BatchingSweep(ctx context.Context, cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := NewTable("E19", "Group commit: single-group KV write throughput vs batch size (1ms one-way delay)",
		"batch", "ops/sec", "p50", "p99", "errors", "speedup")

	base := workload.Config{
		Protocol: workload.ProtocolKV,
		Net:      workload.NetMem,
		Seed:     cfg.Seed,
		MinDelay: time.Millisecond,
		MaxDelay: time.Millisecond, // pinned: exactly the 1ms one-way delay
		Tick:     cfg.Tick,
		ViewC:    cfg.ViewC,
		Duration: time.Second,
		Warmup:   250 * time.Millisecond,
		Clients:  64,
		Keys:     1024,
		Slots:    4096,
		// Write-only: reads serve the local decided prefix and would mask
		// the consensus pipeline being amortized.
		ReadFraction: -1,
		OpTimeout:    20 * time.Second,
	}

	var base1 float64
	for _, batch := range []int{1, 4, 16, 64} {
		wc := base
		wc.Batch = batch
		if batch > 1 {
			wc.BatchWindow = time.Millisecond
			wc.Pipeline = 4
		}
		r, err := workload.Run(ctx, wc)
		if err != nil {
			return nil, fmt.Errorf("E19 batch=%d: %w", batch, err)
		}
		if r.TotalOps == 0 {
			return nil, fmt.Errorf("E19 batch=%d: no operations completed", batch)
		}
		if batch == 1 {
			base1 = r.OpsPerSec
		}
		speedup := "-"
		if batch > 1 && base1 > 0 {
			speedup = fmt.Sprintf("%.2fx", r.OpsPerSec/base1)
		}
		t.AddRow(fmt.Sprintf("%d", batch),
			fmt.Sprintf("%.0f", r.OpsPerSec),
			fmt.Sprintf("%.2fms", r.Latency.P50Ms),
			fmt.Sprintf("%.2fms", r.Latency.P99Ms),
			fmt.Sprintf("%d", r.Errors["read"]+r.Errors["write"]),
			speedup,
		)
	}
	t.AddNote("Equal client concurrency (64) on one Figure-1 group; batch=1 is one command per slot (one consensus round per Set). Group commit coalesces Sets arriving within 1ms (pipeline 4 batches in flight), so one round carries up to `batch` commands — the RTT ceiling becomes an RTT/batch ceiling. BENCH_batching.json records the committed sweep.")
	return t, nil
}
