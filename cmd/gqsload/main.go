// Command gqsload generates sustained client load against the paper's
// protocol endpoints and reports tail-latency percentiles, a per-second
// throughput series and error counts. It is the measurement harness for
// every performance-facing change: runs emit JSON suitable for recording
// benchmark trajectories.
//
// Usage:
//
//	gqsload -protocol register|snapshot|lattice|kv -net mem|tcp
//	        [-clients N] [-rate OPS] [-duration D] [-warmup D]
//	        [-keys N] [-dist uniform|zipf] [-zipf-s S] [-readfrac F]
//	        [-pattern 0..4] [-fault-at F] [-uf] [-nodes N] [-slots N]
//	        [-shards N] [-batch N] [-batch-window D] [-pipeline N]
//	        [-sync-reads] [-lease D]
//	        [-nemesis SPEC] [-nemesis-seed N] [-seed N] [-json]
//
// Examples:
//
//	gqsload -protocol kv -net mem -clients 16 -dist zipf -duration 5s -json
//	gqsload -protocol kv -shards 4 -clients 16 -duration 5s -json
//	gqsload -protocol kv -batch 64 -pipeline 4 -readfrac 0 -duration 5s -json
//	gqsload -protocol kv -lease 1s -readfrac 0.95 -dist zipf -duration 5s -json
//	gqsload -protocol register -net tcp -clients 8 -rate 500 -duration 10s
//	gqsload -protocol register -pattern 1 -fault-at 0.5 -duration 10s
//	gqsload -protocol kv -lease 500ms -rate 200 -duration 10s \
//	        -nemesis 'crash(0)@0.1..0.4; gray(1-2, 1ms, 0.1)@0.3..0.7' -json
//
// A -pattern run injects the chosen Figure-1 failure pattern mid-run
// (-fault-at is the fraction of the measured window). Without -uf, clients
// on nodes outside the pattern's termination component keep issuing and
// their stalled operations surface as timeouts in the error counts — the
// latency cliff the paper's U_f characterizes. With -uf, clients restrict
// to U_f and the run stays wait-free.
//
// A -shards N run (kv only) partitions the keyspace across N independent
// quorum-system groups behind a consistent-hash ring; the report gains
// per-shard sections. Combined with -pattern, the fault is injected into
// shard 0 only — the other shards demonstrate fault isolation.
//
// Every kv write goes through group commit: Sets arriving within
// -batch-window coalesce into one consensus round carrying up to -batch
// commands, and -pipeline bounds how many batches stay in flight (and,
// above 1, how many writes each client keeps outstanding). -batch N above 1
// defaults the window to 1ms and -pipeline to 4; -batch 1 puts every Set in
// its own slot; without the flags the smr defaults apply (up to 64 Sets
// per slot, no window) and clients stay synchronous. Batching lifts the
// per-group RTT ceiling on write throughput — see the README's batching
// section.
//
// Every kv log compacts: each shard group folds its applied state into
// periodic checkpoints (cadence derived from the per-shard -slots window),
// truncates the acknowledged decided prefix and recycles the freed slots,
// so a sustained-write run outlives any -slots budget. The kv report has a
// compaction section (checkpoints, truncations, freed slots, snapshot
// installs, peak slot occupancy against the budget).
//
// A -lease D run (kv only) grants each shard group's process 0 a read
// lease of duration D: reads at a holder are served locally with no
// consensus round while the lease is in force, and reads elsewhere share
// coalesced read barriers. Implies -sync-reads (leased reads are
// linearizable reads). See the README's read-path section.
//
// A -nemesis SPEC run (kv over mem only, exclusive with -pattern) compiles
// the chaos scenario and drives its event timeline — crashes and restarts,
// partitions, seeded link flapping, gray links, clock skew — against shard
// 0 during the measured window; -nemesis-seed makes the timeline
// replayable (same spec, seed and duration ⇒ identical timeline). The run
// is closed by a linearizability check over dedicated probe clients and by
// graceful-degradation assertions; if either fails, gqsload still emits
// the full report (the JSON artifact carries the injected timeline and the
// offending history) and then exits non-zero naming the failure. See the
// README's chaos-testing section for the spec grammar.
//
// Invalid flag combinations (a value out of range, or a flag that its
// protocol/mode would silently ignore, like -shards with -protocol register
// or -zipf-s with -dist uniform) are rejected by workload.Config.Validate
// with a usage message and a non-zero exit, before any cluster opens.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gqsload:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	var cfg workload.Config
	fs := flag.NewFlagSet("gqsload", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	fs.StringVar((*string)(&cfg.Protocol), "protocol", "register", "protocol to load: register, snapshot, lattice or kv")
	fs.StringVar((*string)(&cfg.Net), "net", "mem", "transport: mem (simulated) or tcp (loopback sockets)")
	fs.IntVar(&cfg.Nodes, "nodes", 4, "cluster size (4 = Figure-1 GQS; otherwise crash-minority threshold)")
	fs.IntVar(&cfg.Clients, "clients", 8, "number of concurrent client loops")
	fs.Float64Var(&cfg.Rate, "rate", 0, "open-loop target ops/sec across all clients (0 = closed loop)")
	fs.DurationVar(&cfg.Duration, "duration", 5*time.Second, "measured run length")
	fs.DurationVar(&cfg.Warmup, "warmup", 0, "unmeasured warmup before the run")
	fs.IntVar(&cfg.Keys, "keys", 0, "key-space size (0 = protocol default: 64 registers, 16 snapshots, 64 kv keys)")
	fs.StringVar((*string)(&cfg.Dist), "dist", "uniform", "key distribution: uniform or zipf")
	fs.Float64Var(&cfg.ZipfS, "zipf-s", 0, "zipf skew exponent (default 1.1)")
	fs.Float64Var(&cfg.ZipfV, "zipf-v", 0, "zipf rank offset (default 1)")
	fs.Float64Var(&cfg.ReadFraction, "readfrac", workload.DefaultReadFraction, "fraction of operations taking the read path (default 0.5; an explicit 0 = write-only)")
	fs.IntVar(&cfg.Pattern, "pattern", 0, "failure pattern to inject mid-run: 0 = none, 1..4 = f1..f4 of Figure 1")
	fs.Float64Var(&cfg.FaultFrac, "fault-at", 0.5, "fraction of the run after which the pattern is injected (0 = at start)")
	fs.BoolVar(&cfg.RestrictToUf, "uf", false, "restrict clients to the pattern's termination component U_f")
	fs.IntVar(&cfg.Shards, "shards", 1, "independent quorum-system groups the kv keyspace is consistent-hashed across")
	fs.IntVar(&cfg.Batch, "batch", 0, "max Sets per group-commit consensus round (kv protocol; 0 = default 64, 1 = one Set per slot)")
	fs.DurationVar(&cfg.BatchWindow, "batch-window", 0, "group-commit coalescing window (kv; 0 = default 1ms when -batch > 1, none otherwise)")
	fs.IntVar(&cfg.Pipeline, "pipeline", 0, "batches kept in flight / async writes outstanding per client (kv; 0 = default 4, clients synchronous unless -batch > 1)")
	fs.IntVar(&cfg.Slots, "slots", 0, "total SMR slot window, divided across shards; the window slides as checkpoints retire decided slots (kv protocol; 0 = default 4096)")
	fs.IntVar(&cfg.LatticePool, "lattice-pool", 0, "single-shot lattice object pool size (lattice protocol; 0 = default 8)")
	fs.BoolVar(&cfg.SyncReads, "sync-reads", false, "kv reads commit a Sync barrier before Get")
	fs.DurationVar(&cfg.Lease, "lease", 0, "read-lease duration: leased local reads at each shard's holder, shared barriers elsewhere (kv; implies -sync-reads; 0 = off)")
	fs.StringVar(&cfg.Nemesis, "nemesis", "", "chaos scenario spec driven against shard 0 (kv over mem; see internal/nemesis grammar)")
	fs.Int64Var(&cfg.NemesisSeed, "nemesis-seed", 0, "scenario compilation seed; the event timeline replays bit for bit from (spec, seed, duration) (0 = -seed)")
	fs.Int64Var(&cfg.Seed, "seed", 1, "RNG seed (keys, op mix, simulated delays)")
	fs.DurationVar(&cfg.MinDelay, "min-delay", 0, "simulated per-hop delay lower bound (mem transport; 0 = default 10µs)")
	fs.DurationVar(&cfg.MaxDelay, "max-delay", 0, "simulated per-hop delay upper bound (mem transport; 0 = default 300µs)")
	fs.DurationVar(&cfg.OpTimeout, "op-timeout", 0, "per-operation timeout (0 = protocol default: 2s register, 5s others)")
	jsonOut := fs.Bool("json", false, "emit the report as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Config reads a zero field as unset. These flags show a non-zero
	// default, so a 0 there was typed and is passed on as -1: write-only
	// for -readfrac, injection at the start for -fault-at, and a rejected
	// value for -nodes, -shards, -clients and -duration. An absent -fault-at
	// stays unset, so that its default applies only with a pattern.
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	switch {
	case !set["fault-at"]:
		cfg.FaultFrac = 0
	case cfg.FaultFrac == 0:
		cfg.FaultFrac = -1
	}
	if cfg.ReadFraction == 0 {
		cfg.ReadFraction = -1
	}
	if cfg.Nodes == 0 {
		cfg.Nodes = -1
	}
	if cfg.Shards == 0 {
		cfg.Shards = -1
	}
	if cfg.Clients == 0 {
		cfg.Clients = -1
	}
	if cfg.Duration == 0 {
		cfg.Duration = -1
	}
	if err := cfg.Validate(); err != nil {
		fs.Usage()
		return fmt.Errorf("invalid flags: %w", err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	report, err := workload.Run(ctx, cfg)
	if err != nil {
		return err
	}
	if *jsonOut {
		raw, jerr := report.JSON()
		if jerr != nil {
			return jerr
		}
		fmt.Fprintln(w, string(raw))
	} else {
		report.Text(w)
	}
	return nemesisVerdict(report)
}

// nemesisVerdict turns a failed chaos run into a non-zero exit after the
// full report (with the injected timeline) has been emitted. The error
// names every violated obligation; a linearizability failure carries the
// offending key's sub-history, so the failure is locatable from stderr
// alone.
func nemesisVerdict(report *workload.Report) error {
	nm := report.Nemesis
	if nm == nil || nm.Passed() {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "nemesis run failed (spec %q seed %d):", nm.Spec, nm.Seed)
	if !nm.Linearizable {
		fmt.Fprintf(&b, "\n  probe history not linearizable: %s", nm.LincheckError)
	}
	for _, v := range nm.DegradationViolations {
		fmt.Fprintf(&b, "\n  %s", v)
	}
	return fmt.Errorf("%s", b.String())
}
