package harness

import (
	"context"
	"fmt"
	"time"

	"repro/internal/workload"
)

// E22CompactionSoak validates checkpointed log compaction under sustained
// load and under failure. Row one is the soak: a closed-loop batched
// write-only run against a deliberately tiny slot budget, required to
// commit several times the budget with zero write errors — proof the freed
// slots really are recycled — while peak slot occupancy stays within the
// configured window. Row two is the heal: a seeded nemesis crash keeps
// one replica dark long enough for the ack-timeout to truncate past it, so
// its rejoin can only converge through a snapshot-install; the probes'
// lincheck history closes the run with truncation active throughout.
func E22CompactionSoak(ctx context.Context, cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := NewTable("E22", "Log compaction: sustained-write soak past the slot budget, crash-rejoin healed by snapshot-install",
		"scenario", "ops", "write errs", "ckpts", "truncs", "freed", "installs", "peak/budget", "verdict")

	base := workload.Config{
		Protocol: workload.ProtocolKV,
		Net:      workload.NetMem,
		Seed:     cfg.Seed,
		MinDelay: cfg.MinDelay,
		MaxDelay: cfg.MaxDelay,
		Tick:     cfg.Tick,
		ViewC:    cfg.ViewC,
		Keys:     16,
		Shards:   2,
		Batch:    8,
		// A tiny budget (128 per shard, checkpoint every 32 slots) makes the
		// soak's "writes ≫ budget" claim cheap to reach and the crash row's
		// truncation fast enough to overtake the dark replica.
		Slots:     256,
		OpTimeout: 2 * time.Second,
	}

	// --- sustained-write soak ---
	wc := base
	wc.Clients = 8
	wc.ReadFraction = -1 // write-only: every op consumes log slots
	wc.Duration = 4 * time.Second
	r, err := workload.Run(ctx, wc)
	if err != nil {
		return nil, fmt.Errorf("E22 soak: %w", err)
	}
	c := r.Compaction
	if c == nil {
		return nil, fmt.Errorf("E22 soak: run produced no compaction report")
	}
	if r.Errors["write"] != 0 {
		return nil, fmt.Errorf("E22 soak: %d write errors — slots were not recycled", r.Errors["write"])
	}
	if r.TotalOps < uint64(4*c.SlotBudget) {
		return nil, fmt.Errorf("E22 soak: only %d writes against budget %d — run never outgrew the log", r.TotalOps, c.SlotBudget)
	}
	if c.Truncations == 0 || c.SlotsFreed == 0 {
		return nil, fmt.Errorf("E22 soak: compaction idle (truncations %d, freed %d)", c.Truncations, c.SlotsFreed)
	}
	if c.PeakOccupancy > int64(c.SlotBudget) {
		return nil, fmt.Errorf("E22 soak: peak occupancy %d exceeds the per-run window budget %d", c.PeakOccupancy, c.SlotBudget)
	}
	t.AddRow("sustained-soak",
		fmt.Sprintf("%d", r.TotalOps),
		fmt.Sprintf("%d", r.Errors["write"]),
		fmt.Sprintf("%d", c.Checkpoints),
		fmt.Sprintf("%d", c.Truncations),
		fmt.Sprintf("%d", c.SlotsFreed),
		fmt.Sprintf("%d/%d", c.InstallsSent, c.InstallsReceived),
		fmt.Sprintf("%d/%d", c.PeakOccupancy, c.SlotBudget),
		fmt.Sprintf("%.1fx budget committed", float64(r.TotalOps)/float64(c.SlotBudget)),
	)

	// --- crash and rejoin via snapshot-install ---
	// The crash window (0.1..0.7 of 6s = 3.6s dark) deliberately exceeds the
	// 2s checkpoint ack-timeout: the live majority truncates past the dark
	// replica mid-outage, so its rejoin cannot replay decs and must take the
	// install path. Lease 400ms puts the crashed process's reads on the
	// leased fast path before and after, exercising the checkpoint's lease
	// metadata retention across the install.
	nc := base
	nc.Clients = 4
	nc.Rate = 200
	nc.Lease = 400 * time.Millisecond
	nc.Nemesis = "crash(0)@0.1..0.7"
	nc.NemesisSeed = 7
	nc.Duration = 6 * time.Second
	r, err = workload.Run(ctx, nc)
	if err != nil {
		return nil, fmt.Errorf("E22 crash-rejoin: %w", err)
	}
	nm := r.Nemesis
	c = r.Compaction
	if nm == nil || c == nil {
		return nil, fmt.Errorf("E22 crash-rejoin: run missing nemesis or compaction report")
	}
	if !nm.Linearizable {
		return nil, fmt.Errorf("E22 crash-rejoin: probe history not linearizable with truncation active: %s", nm.LincheckError)
	}
	if len(nm.DegradationViolations) > 0 {
		return nil, fmt.Errorf("E22 crash-rejoin: degradation violations: %v", nm.DegradationViolations)
	}
	if c.Truncations == 0 {
		return nil, fmt.Errorf("E22 crash-rejoin: no truncation during the outage — the ack-timeout fallback never fired")
	}
	if c.InstallsReceived == 0 {
		return nil, fmt.Errorf("E22 crash-rejoin: rejoined replica never received a snapshot-install")
	}
	t.AddRow("crash-rejoin",
		fmt.Sprintf("%d", r.TotalOps),
		fmt.Sprintf("%d", r.Errors["write"]),
		fmt.Sprintf("%d", c.Checkpoints),
		fmt.Sprintf("%d", c.Truncations),
		fmt.Sprintf("%d", c.SlotsFreed),
		fmt.Sprintf("%d/%d", c.InstallsSent, c.InstallsReceived),
		fmt.Sprintf("%d/%d", c.PeakOccupancy, c.SlotBudget),
		yesNo(nm.Linearizable),
	)

	t.AddNote("Soak: %s writes through a %d-slot window, every slot recycled by checkpoint truncation many times over. Crash-rejoin: process 0 dark past the checkpoint ack-timeout, truncation proceeds without it, rejoin heals via snapshot-install (checkpoint + decided suffix) in O(state); the probes' lincheck history passes with truncation running under it. gqsload -protocol kv -slots N drives the same engine from the command line.",
		t.Rows[0][1], 256)
	return t, nil
}
