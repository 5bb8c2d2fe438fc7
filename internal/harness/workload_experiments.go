package harness

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/workload"
)

// E17–E22 measure the system under sustained load with the workload
// engine, the way related systems papers evaluate (e.g. Pod,
// arXiv:2501.14931): where the earlier experiments time a handful of
// sequential operations, these report throughput and p50/p99 over
// thousands. Each is a list of row declarations over one base config.

// workloadBase is the config every workload experiment starts from: the
// mem network with the configured seed, tick, view constant and delays.
func workloadBase(cfg Config) workload.Config {
	cfg = cfg.withDefaults()
	return workload.Config{
		Net:      workload.NetMem,
		Seed:     cfg.Seed,
		MinDelay: cfg.MinDelay,
		MaxDelay: cfg.MaxDelay,
		Tick:     cfg.Tick,
		ViewC:    cfg.ViewC,
	}
}

// sweepRow is one run of a sweep table: its label, how it changes the
// table's base config, and a check its report must pass (nil for none).
type sweepRow struct {
	label string
	mut   func(*workload.Config)
	check func(*workload.Report) error
}

// runSweep runs each row and renders it as ops/sec, the p50 and p99 of
// lat, the error count and — when t has a sixth column — the speedup over
// the first row of this call. A row that completes no operation or fails
// its check fails the experiment. The reports return in row order.
func runSweep(ctx context.Context, t *Table, base workload.Config, lat func(*workload.Report) workload.LatencySummary, rows ...sweepRow) ([]*workload.Report, error) {
	var reports []*workload.Report
	for i, row := range rows {
		wc := base
		row.mut(&wc)
		r, err := workload.Run(ctx, wc)
		if err == nil && r.TotalOps == 0 {
			err = errors.New("no operations completed")
		}
		if err == nil && row.check != nil {
			err = row.check(r)
		}
		if err != nil {
			return nil, fmt.Errorf("%s %s: %w", t.ID, row.label, err)
		}
		cells := []string{row.label,
			fmt.Sprintf("%.0f", r.OpsPerSec),
			fmt.Sprintf("%.2fms", lat(r).P50Ms),
			fmt.Sprintf("%.2fms", lat(r).P99Ms),
			fmt.Sprintf("%d", opErrors(r)),
		}
		if len(t.Columns) > 5 {
			speedup := "-"
			if i > 0 && reports[0].OpsPerSec > 0 {
				speedup = fmt.Sprintf("%.2fx", r.OpsPerSec/reports[0].OpsPerSec)
			}
			cells = append(cells, speedup)
		}
		t.AddRow(cells...)
		reports = append(reports, r)
	}
	return reports, nil
}

func opErrors(r *workload.Report) uint64 { return r.Errors["read"] + r.Errors["write"] }

func allOps(r *workload.Report) workload.LatencySummary { return r.Latency }

// errorFree is the check of a row whose every operation must terminate.
func errorFree(r *workload.Report) error {
	if n := opErrors(r); n > 0 {
		return fmt.Errorf("%d operation errors", n)
	}
	return nil
}

// e17Workload: closed- and open-loop register traffic with tail
// percentiles, the mid-run f1 latency cliff, and the SMR KV layer.
func e17Workload(ctx context.Context, cfg Config) (*Table, error) {
	t := NewTable("E17", "Workload engine: sustained load, tail latency and the U_f cliff",
		"scenario", "ops/sec", "p50", "p99", "errors")
	base := workloadBase(cfg)
	base.Delay = cfg.Delay
	base.Duration = time.Second
	base.Keys, base.Clients = 8, 8
	// Loaded hosts stretch op latencies; scenarios that must stay
	// error-free get headroom so load shows up as tail latency, not as
	// spurious timeouts (the cliff scenario overrides this downward).
	base.OpTimeout = 20 * time.Second
	base.Protocol = workload.ProtocolRegister

	_, err := runSweep(ctx, t, base, allOps,
		sweepRow{"register, closed loop", func(*workload.Config) {}, errorFree},
		sweepRow{"register, open loop 400/s", func(c *workload.Config) { c.Rate = 400 }, errorFree},
		// The only row allowed to time out: unrestricted callers after the
		// fault are the cliff; everywhere else termination is the paper's
		// guarantee.
		sweepRow{"register, f1 at t=50%, all callers", func(c *workload.Config) {
			c.Pattern = 1
			c.OpTimeout = 500 * time.Millisecond
		}, nil},
		sweepRow{"register, f1 at t=50%, U_f1 callers", func(c *workload.Config) {
			c.Pattern = 1
			c.RestrictToUf = true
		}, errorFree},
		sweepRow{"kv (SMR), closed loop", func(c *workload.Config) {
			c.Protocol = workload.ProtocolKV
			c.Clients = 4
			// Registration-triggered proposals made commits RTT-bound
			// rather than view-bound, so a 1s closed loop can decide more
			// than its 4096 slots; compaction recycles them. Idle capacity
			// is free (activity-frontier batching).
			c.Slots = 4096
		}, errorFree},
		// The propagation-cliff probe: 128 register objects per node.
		// Under per-tick full-state re-broadcast this collapsed to tens of
		// ops/s with second-scale tails; delta propagation keeps it at the
		// small-keyspace rate (see BENCH_propagation.json).
		sweepRow{"register, 128-key fan-out", func(c *workload.Config) { c.Keys = 128 }, errorFree},
	)
	if err != nil {
		return nil, err
	}
	t.AddNote("Injecting f1 with unrestricted callers shows the latency cliff: ops at non-U_f nodes stall into timeouts. Restricted to U_f1, the run stays wait-free (Theorem 1).")
	t.AddNote("KV commits are RTT-bound at the view leader (registration-triggered proposals); the remaining per-log ceiling is the serial slot pipeline, which E18 scales out by sharding.")
	return t, nil
}

// kvSweepBase is the write-only KV load E18–E20 sweep: 64 clients over
// 1024 keys in a 4096-slot budget, one measured second after a 250ms
// warmup. One-way delays are pinned to [1ms, maxDelay] so runs are
// latency-bound and the speedup column measures consensus rounds, not
// scheduling artifacts of the zero-delay simulator.
func kvSweepBase(cfg Config, maxDelay time.Duration) workload.Config {
	wc := workloadBase(cfg)
	wc.Protocol = workload.ProtocolKV
	wc.MinDelay, wc.MaxDelay = time.Millisecond, maxDelay
	wc.Duration, wc.Warmup = time.Second, 250*time.Millisecond
	wc.Clients, wc.Keys, wc.Slots = 64, 1024, 4096
	// Reads serve the local decided prefix and would mask the consensus
	// pipeline being measured.
	wc.ReadFraction = -1
	wc.OpTimeout = 20 * time.Second
	return wc
}

// e18ShardScaling measures horizontal KV scaling across consistent-hash
// shards (internal/shard): each shard is an independent quorum-system
// group with its own SMR log, so aggregate write throughput grows with the
// shard count while the total slot budget stays fixed. The final row
// injects f1 into shard 0 only: with callers restricted to U_f1 the
// faulted key range stays live, and the per-shard report sections show
// the other shards keep their latency profile — per-shard fault isolation.
func e18ShardScaling(ctx context.Context, cfg Config) (*Table, error) {
	t := NewTable("E18", "Sharded KV: throughput vs shard count (independent GQS groups behind one ring)",
		"shards", "ops/sec", "p50", "p99", "errors", "speedup")
	base := kvSweepBase(cfg, 3*time.Millisecond)

	var rows []sweepRow
	for _, n := range []int{1, 2, 4, 8} {
		rows = append(rows, sweepRow{fmt.Sprintf("%d", n), func(c *workload.Config) { c.Shards = n }, nil})
	}
	if _, err := runSweep(ctx, t, base, allOps, rows...); err != nil {
		return nil, err
	}
	// Fault isolation: f1 into shard 0 at t=50%, callers restricted to
	// U_f1. The run must stay error-free; it is not a scaling row, so it
	// runs on its own and reports no speedup.
	reports, err := runSweep(ctx, t, base, allOps, sweepRow{"4 + f1→shard 0", func(c *workload.Config) {
		c.Shards = 4
		c.ReadFraction = 0.5
		c.Pattern = 1
		c.RestrictToUf = true
	}, errorFree})
	if err != nil {
		return nil, err
	}
	if ps := reports[0].PerShard; len(ps) == 4 {
		t.AddNote("f1 hits shard 0 only: per-shard p99 = %.1f / %.1f / %.1f / %.1f ms — the unfaulted shards keep their profile while U_f1 routing keeps shard 0 live (Theorem 1, per key range).",
			ps[0].Latency.P99Ms, ps[1].Latency.P99Ms, ps[2].Latency.P99Ms, ps[3].Latency.P99Ms)
	}
	t.AddNote("Fixed 4096-slot budget split across shards; ms-scale delays make runs latency-bound, so the speedup column is parallel consensus pipelines, not simulator scheduling. 8 shards begin to saturate the measurement host's CPU.")
	return t, nil
}

// e19BatchingSweep measures group-commit batching and pipelined appends on
// a single quorum-system group (internal/smr batch.go): write throughput
// vs the batch-size cap at a pinned 1ms one-way delay. At batch=1 every
// Set gets its own slot and throughput is pinned near 1/RTT per
// outstanding slot; with group commit one round carries the whole batch,
// so the ceiling rises with the batch size until the host CPU (not the
// network) saturates. Client concurrency is equal across rows.
func e19BatchingSweep(ctx context.Context, cfg Config) (*Table, error) {
	t := NewTable("E19", "Group commit: single-group KV write throughput vs batch size (1ms one-way delay)",
		"batch", "ops/sec", "p50", "p99", "errors", "speedup")
	rows := []sweepRow{{"1", func(c *workload.Config) { c.Batch = 1 }, nil}}
	for _, n := range []int{4, 16, 64} {
		rows = append(rows, sweepRow{fmt.Sprintf("%d", n), func(c *workload.Config) {
			c.Batch = n
			c.BatchWindow = time.Millisecond
			c.Pipeline = 4
		}, nil})
	}
	if _, err := runSweep(ctx, t, kvSweepBase(cfg, time.Millisecond), allOps, rows...); err != nil {
		return nil, err
	}
	t.AddNote("Equal client concurrency (64) on one Figure-1 group; batch=1 is one command per slot (one consensus round per Set). Group commit coalesces Sets arriving within 1ms (pipeline 4 batches in flight), so one round carries up to `batch` commands — the RTT ceiling becomes an RTT/batch ceiling. BENCH_batching.json records the committed sweep.")
	return t, nil
}

// e20ReadPathSweep measures the linearizable read paths on a single
// quorum-system group (internal/lease): a read-heavy (0.95) Zipf mix at a
// pinned 1ms one-way delay, barrier-per-read vs leased local reads. With a
// barrier per read, every linearizable read commits its own Sync no-op,
// so read throughput is bound by consensus rounds (group commit shares a
// round among concurrent barriers, as it does writes); with a read lease,
// reads at the holder are served straight from the applied state with no
// round at all and reads elsewhere share coalesced barrier commits. The
// p50/p99 columns are read latencies.
func e20ReadPathSweep(ctx context.Context, cfg Config) (*Table, error) {
	t := NewTable("E20", "Read path: single-group KV read throughput, barrier-per-read vs leased (1ms one-way delay)",
		"reads", "ops/sec", "p50", "p99", "errors", "speedup")
	base := kvSweepBase(cfg, time.Millisecond)
	// The linearizable read path is the subject; writes keep the lease's
	// append gate honest.
	base.ReadFraction = 0.95
	base.Dist = workload.DistZipf
	base.SyncReads = true
	reads := func(r *workload.Report) workload.LatencySummary { return r.Reads }
	_, err := runSweep(ctx, t, base, reads,
		sweepRow{"barrier-per-read", func(*workload.Config) {}, nil},
		sweepRow{"leased", func(c *workload.Config) { c.Lease = time.Second }, nil},
	)
	if err != nil {
		return nil, err
	}
	t.AddNote("Equal client concurrency (64) on one Figure-1 group, 0.95 read fraction over a Zipf key distribution; every read is linearizable on both rows. Barrier-per-read commits a private Sync no-op per read; the leased row grants the group's process 0 a 1s read lease (internal/lease), so reads at the holder skip the round entirely and the rest share coalesced barriers. BENCH_reads.json records the committed sweep.")
	return t, nil
}

// chaosBase is the two-shard batched KV that E21 and E22 drive: 16 keys,
// batch 8, a 2s op timeout.
func chaosBase(cfg Config) workload.Config {
	wc := workloadBase(cfg)
	wc.Protocol = workload.ProtocolKV
	wc.Keys, wc.Shards, wc.Batch = 16, 2, 8
	wc.OpTimeout = 2 * time.Second
	return wc
}

// withNemesis runs the nemesis scenario spec (nemesis seed 7) for d under
// four open-loop clients at a modest 200 ops/s — a closed-loop batched
// run saturates the write pipeline mid-scenario and the probes would
// measure queueing, not chaos recovery — with a 400ms read lease.
func withNemesis(wc workload.Config, spec string, d time.Duration) workload.Config {
	wc.Clients, wc.Rate = 4, 200
	wc.Lease = 400 * time.Millisecond
	wc.Nemesis, wc.NemesisSeed = spec, 7
	wc.Duration = d
	return wc
}

// checkNemesis closes a chaos run: the probe history is linearizable under
// Wing–Gong, no graceful-degradation obligation was violated (every
// steady quorate second served operations; reads kept succeeding after
// the lease holder was killed), and the probes completed operations.
func checkNemesis(r *workload.Report) error {
	nm := r.Nemesis
	switch {
	case nm == nil:
		return errors.New("run produced no nemesis report")
	case !nm.Linearizable:
		return fmt.Errorf("probe history not linearizable: %s", nm.LincheckError)
	case len(nm.DegradationViolations) > 0:
		return fmt.Errorf("degradation violations: %v", nm.DegradationViolations)
	case nm.ProbeOps == 0:
		return errors.New("probes completed no operations")
	}
	return nil
}

// e21NemesisScenarios drives the seeded chaos engine (internal/nemesis)
// against the live sharded/batched/leased KV cluster: each row is one
// pinned-seed scenario — a lease-holder crash/restart, an asymmetric
// partition, and the combined acceptance scenario (crash + asymmetric
// partition + gray link) — run with dedicated probe clients whose routed
// operations are recorded in a lincheck history. A row only renders if the
// run passes checkNemesis. The same seeds replay the same timelines, so
// the table is a committed chaos regression matrix, not a flaky soak.
func e21NemesisScenarios(ctx context.Context, cfg Config) (*Table, error) {
	t := NewTable("E21", "Nemesis scenarios: seeded chaos against the sharded/batched/leased KV, lincheck-closed",
		"scenario", "events", "probe ops", "reads", "errors", "linearizable", "degradation")
	for _, row := range []struct {
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
	} {
		r, err := workload.Run(ctx, withNemesis(chaosBase(cfg), row.spec, row.duration))
		if err == nil {
			err = checkNemesis(r)
		}
		if err != nil {
			return nil, fmt.Errorf("E21 %s: %w", row.label, err)
		}
		nm := r.Nemesis
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

// e22CompactionSoak validates checkpointed log compaction under sustained
// load and under failure. Row one is the soak: a closed-loop batched
// write-only run against a deliberately tiny slot budget, required to
// commit several times the budget with zero write errors — proof the freed
// slots really are recycled — while peak slot occupancy stays within the
// configured window. Row two is the heal: a seeded nemesis crash keeps
// one replica dark long enough for the ack-timeout to truncate past it, so
// its rejoin can only converge through a snapshot-install; the probes'
// lincheck history closes the run with truncation active throughout.
func e22CompactionSoak(ctx context.Context, cfg Config) (*Table, error) {
	t := NewTable("E22", "Log compaction: sustained-write soak past the slot budget, crash-rejoin healed by snapshot-install",
		"scenario", "ops", "write errs", "ckpts", "truncs", "freed", "installs", "peak/budget", "verdict")
	base := chaosBase(cfg)
	// A tiny budget (128 per shard, checkpoint every 32 slots) makes the
	// soak's "writes ≫ budget" claim cheap to reach and the crash row's
	// truncation fast enough to overtake the dark replica.
	base.Slots = 256

	soak := base
	soak.Clients = 8
	soak.ReadFraction = -1 // write-only: every op consumes log slots
	soak.Duration = 4 * time.Second
	// The crash window (0.1..0.7 of 6s = 3.6s dark) deliberately exceeds
	// the 2s checkpoint ack-timeout: the live majority truncates past the
	// dark replica mid-outage, so its rejoin cannot replay decs and must
	// take the install path. The read lease puts the crashed process's
	// reads on the leased fast path before and after, exercising the
	// checkpoint's lease metadata retention across the install.
	crash := withNemesis(base, "crash(0)@0.1..0.7", 6*time.Second)

	for _, row := range []struct {
		label string
		wc    workload.Config
		check func(*workload.Report, *workload.CompactionReport) (string, error)
	}{
		{"sustained-soak", soak, func(r *workload.Report, c *workload.CompactionReport) (string, error) {
			switch {
			case r.Errors["write"] != 0:
				return "", fmt.Errorf("%d write errors — slots were not recycled", r.Errors["write"])
			case r.TotalOps < uint64(4*c.SlotBudget):
				return "", fmt.Errorf("only %d writes against budget %d — run never outgrew the log", r.TotalOps, c.SlotBudget)
			case c.Truncations == 0 || c.SlotsFreed == 0:
				return "", fmt.Errorf("compaction idle (truncations %d, freed %d)", c.Truncations, c.SlotsFreed)
			case c.PeakOccupancy > int64(c.SlotBudget):
				return "", fmt.Errorf("peak occupancy %d exceeds the per-run window budget %d", c.PeakOccupancy, c.SlotBudget)
			}
			return fmt.Sprintf("%.1fx budget committed", float64(r.TotalOps)/float64(c.SlotBudget)), nil
		}},
		{"crash-rejoin", crash, func(r *workload.Report, c *workload.CompactionReport) (string, error) {
			if err := checkNemesis(r); err != nil {
				return "", fmt.Errorf("with truncation active: %w", err)
			}
			switch {
			case c.Truncations == 0:
				return "", errors.New("no truncation during the outage — the ack-timeout fallback never fired")
			case c.InstallsReceived == 0:
				return "", errors.New("rejoined replica never received a snapshot-install")
			}
			return yesNo(r.Nemesis.Linearizable), nil
		}},
	} {
		r, err := workload.Run(ctx, row.wc)
		if err == nil && r.Compaction == nil {
			err = errors.New("run produced no compaction report")
		}
		var verdict string
		if err == nil {
			verdict, err = row.check(r, r.Compaction)
		}
		if err != nil {
			return nil, fmt.Errorf("E22 %s: %w", row.label, err)
		}
		c := r.Compaction
		t.AddRow(row.label,
			fmt.Sprintf("%d", r.TotalOps),
			fmt.Sprintf("%d", r.Errors["write"]),
			fmt.Sprintf("%d", c.Checkpoints),
			fmt.Sprintf("%d", c.Truncations),
			fmt.Sprintf("%d", c.SlotsFreed),
			fmt.Sprintf("%d/%d", c.InstallsSent, c.InstallsReceived),
			fmt.Sprintf("%d/%d", c.PeakOccupancy, c.SlotBudget),
			verdict,
		)
	}
	t.AddNote("Soak: %s writes through a %d-slot window, every slot recycled by checkpoint truncation many times over. Crash-rejoin: process 0 dark past the checkpoint ack-timeout, truncation proceeds without it, rejoin heals via snapshot-install (checkpoint + decided suffix) in O(state); the probes' lincheck history passes with truncation running under it. gqsload -protocol kv -slots N drives the same engine from the command line.",
		t.Rows[0][1], base.Slots)
	return t, nil
}
