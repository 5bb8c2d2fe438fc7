package harness

import (
	"context"
	"fmt"
	"time"

	"repro/internal/workload"
)

// E20ReadPathSweep measures the linearizable read paths on a single
// quorum-system group (internal/lease): a read-heavy (0.95) Zipf mix at a
// fixed 1ms one-way delay, barrier-per-read vs leased local reads. With a
// barrier per read, every linearizable read commits its own Sync no-op, so
// read throughput is bound by consensus rounds (group commit shares a
// round among concurrent barriers, as it does writes); with a read lease,
// reads at the holder are served straight from the applied state with no
// round at all and reads elsewhere share coalesced barrier commits. Delays are pinned (min = max = 1ms) so
// the sweep is latency-bound and the speedup column measures rounds
// avoided, not simulator scheduling. Client concurrency is equal across
// rows — exactly the comparison the read-path acceptance criterion names.
func E20ReadPathSweep(ctx context.Context, cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := NewTable("E20", "Read path: single-group KV read throughput, barrier-per-read vs leased (1ms one-way delay)",
		"reads", "ops/sec", "p50", "p99", "errors", "speedup")

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
		// Read-heavy Zipf mix: the linearizable read path is the subject,
		// writes keep the lease's append gate honest.
		ReadFraction: 0.95,
		Dist:         workload.DistZipf,
		SyncReads:    true,
		OpTimeout:    20 * time.Second,
	}

	rows := []struct {
		label string
		lease time.Duration
	}{
		{"barrier-per-read", 0},
		{"leased", time.Second},
	}
	var base1 float64
	for _, row := range rows {
		wc := base
		wc.Lease = row.lease
		r, err := workload.Run(ctx, wc)
		if err != nil {
			return nil, fmt.Errorf("E20 %s: %w", row.label, err)
		}
		if r.TotalOps == 0 {
			return nil, fmt.Errorf("E20 %s: no operations completed", row.label)
		}
		if row.lease == 0 {
			base1 = r.OpsPerSec
		}
		speedup := "-"
		if row.lease > 0 && base1 > 0 {
			speedup = fmt.Sprintf("%.2fx", r.OpsPerSec/base1)
		}
		t.AddRow(row.label,
			fmt.Sprintf("%.0f", r.OpsPerSec),
			fmt.Sprintf("%.2fms", r.Reads.P50Ms),
			fmt.Sprintf("%.2fms", r.Reads.P99Ms),
			fmt.Sprintf("%d", r.Errors["read"]+r.Errors["write"]),
			speedup,
		)
	}
	t.AddNote("Equal client concurrency (64) on one Figure-1 group, 0.95 read fraction over a Zipf key distribution; every read is linearizable on both rows. Barrier-per-read commits a private Sync no-op per read; the leased row grants the group's process 0 a 1s read lease (internal/lease), so reads at the holder skip the round entirely and the rest share coalesced barriers. BENCH_reads.json records the committed sweep.")
	return t, nil
}
