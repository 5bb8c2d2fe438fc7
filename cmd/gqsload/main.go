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
// or -zipf-s with -dist uniform) are rejected with a usage message and a
// non-zero exit.
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
	fs := flag.NewFlagSet("gqsload", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	protocol := fs.String("protocol", "register", "protocol to load: register, snapshot, lattice or kv")
	netKind := fs.String("net", "mem", "transport: mem (simulated) or tcp (loopback sockets)")
	nodes := fs.Int("nodes", 4, "cluster size (4 = Figure-1 GQS; otherwise crash-minority threshold)")
	clients := fs.Int("clients", 8, "number of concurrent client loops")
	rate := fs.Float64("rate", 0, "open-loop target ops/sec across all clients (0 = closed loop)")
	duration := fs.Duration("duration", 5*time.Second, "measured run length")
	warmup := fs.Duration("warmup", 0, "unmeasured warmup before the run")
	keys := fs.Int("keys", 0, "key-space size (0 = protocol default: 64 registers, 16 snapshots, 64 kv keys)")
	dist := fs.String("dist", "uniform", "key distribution: uniform or zipf")
	zipfS := fs.Float64("zipf-s", 0, "zipf skew exponent (default 1.1)")
	zipfV := fs.Float64("zipf-v", 0, "zipf rank offset (default 1)")
	readfrac := fs.Float64("readfrac", workload.DefaultReadFraction, "fraction of operations taking the read path (default 0.5; an explicit 0 = write-only)")
	pattern := fs.Int("pattern", 0, "failure pattern to inject mid-run: 0 = none, 1..4 = f1..f4 of Figure 1")
	faultAt := fs.Float64("fault-at", 0.5, "fraction of the run after which the pattern is injected (0 = at start)")
	uf := fs.Bool("uf", false, "restrict clients to the pattern's termination component U_f")
	shards := fs.Int("shards", 1, "independent quorum-system groups the kv keyspace is consistent-hashed across")
	batch := fs.Int("batch", 0, "max Sets per group-commit consensus round (kv protocol; 0 = default 64, 1 = one Set per slot)")
	batchWindow := fs.Duration("batch-window", 0, "group-commit coalescing window (kv; 0 = default 1ms when -batch > 1, none otherwise)")
	pipeline := fs.Int("pipeline", 0, "batches kept in flight / async writes outstanding per client (kv; 0 = default 4, clients synchronous unless -batch > 1)")
	slots := fs.Int("slots", 0, "total SMR slot window, divided across shards; the window slides as checkpoints retire decided slots (kv protocol; 0 = default 4096)")
	latticePool := fs.Int("lattice-pool", 0, "single-shot lattice object pool size (lattice protocol; 0 = default 8)")
	syncReads := fs.Bool("sync-reads", false, "kv reads commit a Sync barrier before Get")
	leaseDur := fs.Duration("lease", 0, "read-lease duration: leased local reads at each shard's holder, shared barriers elsewhere (kv; implies -sync-reads; 0 = off)")
	nemSpec := fs.String("nemesis", "", "chaos scenario spec driven against shard 0 (kv over mem; see internal/nemesis grammar)")
	nemSeed := fs.Int64("nemesis-seed", 0, "scenario compilation seed; the event timeline replays bit for bit from (spec, seed, duration) (0 = -seed)")
	seed := fs.Int64("seed", 1, "RNG seed (keys, op mix, simulated delays)")
	minDelay := fs.Duration("min-delay", 0, "simulated per-hop delay lower bound (mem transport; 0 = default 10µs)")
	maxDelay := fs.Duration("max-delay", 0, "simulated per-hop delay upper bound (mem transport; 0 = default 300µs)")
	opTimeout := fs.Duration("op-timeout", 0, "per-operation timeout (0 = protocol default: 2s register, 5s others)")
	jsonOut := fs.Bool("json", false, "emit the report as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Reject flag combinations the engine would otherwise silently ignore
	// (or misread), before any cluster spins up. set tracks flags the user
	// passed explicitly, distinguishing "-slots 0" from an absent -slots.
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	var bad []string
	reject := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	if *shards < 1 {
		reject("-shards must be at least 1, got %d", *shards)
	}
	if *shards > 1 && *protocol != "kv" {
		reject("-shards applies to -protocol kv only (got %q)", *protocol)
	}
	if *rate < 0 {
		reject("-rate must be non-negative (0 = closed loop), got %v", *rate)
	}
	if *clients < 1 {
		reject("-clients must be at least 1, got %d", *clients)
	}
	if *duration <= 0 {
		reject("-duration must be positive, got %v", *duration)
	}
	if *warmup < 0 {
		reject("-warmup must be non-negative, got %v", *warmup)
	}
	if *keys < 0 {
		reject("-keys must be non-negative (0 = protocol default), got %d", *keys)
	}
	if *readfrac < 0 || *readfrac > 1 {
		reject("-readfrac must be in [0,1], got %v", *readfrac)
	}
	if *pattern < 0 || *pattern > 4 {
		reject("-pattern must be in 0..4 (0 = none, 1..4 = f1..f4), got %d", *pattern)
	}
	if *faultAt < 0 || *faultAt >= 1 {
		reject("-fault-at must be in [0,1), got %v", *faultAt)
	}
	if (set["zipf-s"] || set["zipf-v"]) && *dist != "zipf" {
		reject("-zipf-s/-zipf-v apply to -dist zipf only (got %q)", *dist)
	}
	if set["zipf-s"] && *zipfS <= 1 {
		reject("-zipf-s must exceed 1, got %v", *zipfS)
	}
	if set["uf"] && *pattern == 0 {
		reject("-uf needs a failure pattern (-pattern 1..4)")
	}
	if set["fault-at"] && *pattern == 0 {
		reject("-fault-at needs a failure pattern (-pattern 1..4)")
	}
	if (set["slots"] || set["sync-reads"] || set["lease"]) && *protocol != "kv" {
		reject("-slots/-sync-reads/-lease apply to -protocol kv only (got %q)", *protocol)
	}
	if *leaseDur < 0 {
		reject("-lease must be non-negative (0 = no read lease), got %v", *leaseDur)
	}
	if (set["batch"] || set["batch-window"] || set["pipeline"]) && *protocol != "kv" {
		reject("-batch/-batch-window/-pipeline apply to -protocol kv only (got %q)", *protocol)
	}
	if *batch < 0 || *pipeline < 0 || *batchWindow < 0 {
		reject("-batch/-batch-window/-pipeline must be non-negative")
	}
	if set["lattice-pool"] && *protocol != "lattice" {
		reject("-lattice-pool applies to -protocol lattice only (got %q)", *protocol)
	}
	if *nemSpec != "" {
		if *protocol != "kv" {
			reject("-nemesis applies to -protocol kv only (got %q)", *protocol)
		}
		if *netKind != "mem" {
			reject("-nemesis needs the mem network (got %q)", *netKind)
		}
		if *pattern > 0 {
			reject("-nemesis and -pattern are mutually exclusive")
		}
	}
	if set["nemesis-seed"] && *nemSpec == "" {
		reject("-nemesis-seed needs a scenario (-nemesis)")
	}
	if (set["min-delay"] || set["max-delay"]) && *netKind != "mem" {
		reject("-min-delay/-max-delay shape the simulated mem transport only (got %q)", *netKind)
	}
	if *minDelay < 0 || *maxDelay < 0 {
		reject("-min-delay/-max-delay must be non-negative")
	} else if set["min-delay"] || set["max-delay"] {
		// Compare against the bound the engine will actually use, so
		// "-min-delay 1ms" without -max-delay errors instead of silently
		// degenerating to a constant 1ms delay.
		effMin, effMax := *minDelay, *maxDelay
		if effMin == 0 {
			effMin = workload.DefaultMinDelay
		}
		if effMax == 0 {
			effMax = workload.DefaultMaxDelay
		}
		if effMin > effMax {
			reject("-min-delay %v exceeds -max-delay %v (unset bounds default to %v/%v)",
				effMin, effMax, workload.DefaultMinDelay, workload.DefaultMaxDelay)
		}
	}
	if len(bad) > 0 {
		fs.Usage()
		return fmt.Errorf("invalid flags: %s", strings.Join(bad, "; "))
	}

	cfg := workload.Config{
		Protocol:     workload.Protocol(*protocol),
		Net:          workload.NetKind(*netKind),
		Nodes:        *nodes,
		Clients:      *clients,
		Rate:         *rate,
		Duration:     *duration,
		Warmup:       *warmup,
		Keys:         *keys,
		Dist:         workload.DistKind(*dist),
		ZipfS:        *zipfS,
		ZipfV:        *zipfV,
		ReadFraction: *readfrac,
		Seed:         *seed,
		Pattern:      *pattern,
		FaultFrac:    *faultAt,
		RestrictToUf: *uf,
		Shards:       *shards,
		Slots:        *slots,
		Batch:        *batch,
		BatchWindow:  *batchWindow,
		Pipeline:     *pipeline,
		LatticePool:  *latticePool,
		SyncReads:    *syncReads,
		Lease:        *leaseDur,
		Nemesis:      *nemSpec,
		NemesisSeed:  *nemSeed,
		OpTimeout:    *opTimeout,
		MinDelay:     *minDelay,
		MaxDelay:     *maxDelay,
	}

	// The engine's Config treats zero ReadFraction/FaultFrac as "use the
	// default"; an explicit 0 on the command line means write-only reads
	// and inject-at-start respectively.
	if *readfrac == 0 {
		cfg.ReadFraction = -1
	}
	if *faultAt == 0 {
		cfg.FaultFrac = -1
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
