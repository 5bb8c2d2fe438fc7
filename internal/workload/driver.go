package workload

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/failure"
	"repro/internal/nemesis"
	"repro/internal/quorum"
	"repro/internal/transport"
)

// Default simulated per-hop delay bounds of the mem transport.
const (
	DefaultMinDelay = 10 * time.Microsecond
	DefaultMaxDelay = 300 * time.Microsecond
)

// DefaultReadFraction is the read mix a zero Config.ReadFraction selects.
// The field is a float whose zero value must mean "default", so write-only
// runs are requested with any negative value rather than 0; front ends
// (gqsload -readfrac) surface the same convention.
const DefaultReadFraction = 0.5

// Config describes one load-generation run.
type Config struct {
	// Protocol selects the endpoint under load. Default register.
	Protocol Protocol
	// Net selects the transport. Default mem. Fault injection (Pattern)
	// requires mem.
	Net NetKind
	// Nodes is the cluster size. Default 4, deploying the paper's Figure-1
	// GQS; other sizes derive the canonical GQS of the crash-minority
	// threshold system.
	Nodes int
	// Clients is the number of concurrent client loops. Default 8.
	Clients int
	// Rate, when positive, switches to open-loop mode: a token-bucket pacer
	// schedules operations at this aggregate ops/sec across all clients.
	// Zero means closed loop (each client issues back to back).
	Rate float64
	// Duration is the measured run length. Default 5s.
	Duration time.Duration
	// Warmup runs the workload for this long before measurement starts
	// (operations during warmup are not recorded). Default 0.
	Warmup time.Duration
	// Keys is the key-space size. For kv it is the number of distinct keys
	// (cheap — one shared log) and defaults to 64. For register and snapshot
	// every key is a full endpoint object at every node. Propagation is
	// delta-based and quiescence-aware (idle objects send nothing; only
	// changed state is flushed), so large key spaces are cheap: the old
	// per-tick full-state re-broadcast capped registers/node at ~32-64
	// before the event loops saturated, while the current defaults of 64
	// registers and 16 snapshots run hundreds of objects flat (see
	// BENCH_propagation.json for the measured sweep).
	Keys int
	// Dist selects the key distribution. Default uniform.
	Dist DistKind
	// ZipfS and ZipfV parameterize DistZipf (rank-k probability
	// ~ (ZipfV+k)^-ZipfS). Zero accepts defaults (1.1, 1). Requires
	// DistZipf.
	ZipfS, ZipfV float64
	// ReadFraction is the probability an operation takes the read path.
	// Zero accepts DefaultReadFraction (0.5); any negative value means
	// write-only (0% reads) — the zero value cannot itself mean write-only
	// without making every default-constructed Config write-only. Ignored
	// by the lattice protocol (every op proposes).
	ReadFraction float64
	// Seed makes key choice, read/write mix and simulated delays
	// deterministic. Default 1.
	Seed int64
	// Pattern injects the Figure-1 failure pattern f_Pattern (1..4) mid-run;
	// 0 injects nothing. Requires Nodes=4 and Net=mem.
	Pattern int
	// FaultFrac is the fraction of Duration after which Pattern is injected.
	// Zero accepts the default 0.5; any negative value injects at the start
	// of the measured window. Requires Pattern.
	FaultFrac float64
	// RestrictToUf, with Pattern set, confines clients to the pattern's
	// termination component U_f, where the paper guarantees wait-freedom.
	// Otherwise clients on non-U_f nodes keep issuing and their post-fault
	// operations time out into the error counts (the latency cliff).
	RestrictToUf bool
	// Nemesis compiles this chaos scenario spec (internal/nemesis grammar:
	// crash, part, apart, flap, gray, skew clauses) and drives the event
	// timeline against shard 0 during the measured window. Requires the kv
	// protocol and the mem network; mutually exclusive with Pattern.
	// Dedicated probe clients issue routed linearizable operations on
	// shard-0 keys; the run is closed by lincheck.CheckKVHistory over their
	// history and nemesis.CheckDegradation over per-second availability
	// buckets (see Report.Nemesis).
	Nemesis string
	// NemesisSeed seeds scenario compilation (flap-cycle placement): the
	// event timeline is a pure function of (Nemesis, NemesisSeed,
	// Duration), so any run replays from its report alone. Zero accepts
	// Seed. Requires Nemesis.
	NemesisSeed int64
	// Shards partitions the kv keyspace across this many independent
	// quorum-system groups behind a consistent-hash ring (internal/shard):
	// each shard is a full deployment with its own transport, propagators and
	// SMR log, so aggregate kv throughput scales with the shard count while a
	// fault degrades only one key range. Default 1 (a single group). Values
	// above 1 require the kv protocol. With Pattern set, the pattern is
	// injected into shard 0 only — the other shards are the fault-isolation
	// control group, visible in the report's per-shard sections.
	Shards int
	// Slots is the total SMR slot window for the kv protocol, divided
	// evenly across Shards (each shard's log keeps Slots/Shards consensus
	// instances live per node; see the smr package comment). The window
	// slides: every log checkpoints each smr.DefaultInterval(Slots/Shards)
	// slots, truncates the acknowledged prefix and recycles the freed
	// slots, so Slots bounds the slots in use at once, not the run's
	// writes. Virgin slots beyond the log's activity frontier cost no
	// per-view work or traffic at all. Default 4096. Requires kv.
	Slots int
	// Batch caps the commands per group commit of the kv protocol's SMR
	// logs (core.WithBatch): Sets arriving within BatchWindow coalesce into
	// one consensus round carrying the whole batch, amortizing the RTT that
	// otherwise bounds per-group write throughput. 0 takes the smr default
	// (64, no window); 1 puts every Set in its own slot. Requires kv.
	Batch int
	// BatchWindow is the group-commit coalescing window. Zero accepts the
	// default 1ms when Batch > 1, and no window otherwise.
	BatchWindow time.Duration
	// Pipeline is the in-flight window: the kv logs keep up to this many
	// batches in flight across consecutive slots, and when above 1 each
	// driver client issues writes asynchronously with up to Pipeline
	// outstanding instead of blocking on every decision (pipelined mode,
	// open or closed loop). Zero accepts the default 4 when Batch > 1, and
	// otherwise keeps the smr default of 4 slots in flight with synchronous
	// clients; 1 keeps clients synchronous.
	Pipeline int
	// LatticePool is the number of pre-created single-shot lattice objects
	// per run for the lattice protocol. Each object is a backing snapshot of
	// Nodes segment registers at every node; with delta propagation idle
	// pool objects cost nothing on the wire, so the pool can be sized to
	// the expected proposal count per node. Default 8. Requires lattice.
	LatticePool int
	// SyncReads makes kv reads linearizable across nodes: each read commits
	// a Sync barrier before Get (as expensive as a write), except where a
	// read lease (Lease) lets the leaseholder skip the barrier. Requires kv.
	SyncReads bool
	// Lease, when positive, grants node 0 of every shard group a read lease
	// of this duration (core.WithLease): reads at the leaseholder are served
	// locally with no barrier while the lease is in force, and reads route
	// through the leased/shared-barrier path (KVClient.SyncGet) instead of
	// a pinned per-read barrier. Implies SyncReads — leased reads are
	// linearizable, so comparing them against non-linearizable local reads
	// would be meaningless. Requires the kv protocol.
	Lease time.Duration
	// OpTimeout bounds each operation; timed-out operations land in the
	// error counts. Default 2s for register, 5s for snapshot, lattice and
	// kv, whose operations cost multiple quorum rounds (or a consensus
	// decision) and legitimately reach seconds under contention.
	OpTimeout time.Duration
	// Tick is the periodic propagation interval of the quorum access
	// functions. Default 2ms.
	Tick time.Duration
	// ViewC is the consensus view-duration constant (kv). Default 5ms.
	ViewC time.Duration
	// MinDelay and MaxDelay bound simulated per-hop delays (mem only).
	// Defaults DefaultMinDelay and DefaultMaxDelay.
	MinDelay, MaxDelay time.Duration
	// Delay overrides the uniform MinDelay/MaxDelay model entirely when
	// non-nil (mem only) — e.g. transport.PartialSync.
	Delay transport.DelayModel

	// nemesisClocks is installed by newKVTarget on nemesis runs: the chaos
	// shard's per-process lease clocks, stepped by skew events.
	nemesisClocks func(failure.Proc) clock.Clock
}

func (c Config) withDefaults() Config {
	if c.Protocol == "" {
		c.Protocol = ProtocolRegister
	}
	if c.Net == "" {
		c.Net = NetMem
	}
	if c.Nodes == 0 {
		c.Nodes = 4
	}
	if c.Clients == 0 {
		c.Clients = 8
	}
	if c.Duration == 0 {
		c.Duration = 5 * time.Second
	}
	if c.Keys == 0 {
		switch c.Protocol {
		case ProtocolRegister:
			c.Keys = 64
		case ProtocolSnapshot:
			c.Keys = 16 // each snapshot object is Nodes segment registers
		default:
			c.Keys = 64
		}
	}
	if c.Dist == "" {
		c.Dist = DistUniform
	}
	switch {
	case c.ReadFraction == 0:
		c.ReadFraction = DefaultReadFraction
	case c.ReadFraction < 0:
		c.ReadFraction = 0 // explicit write-only
	}
	if c.Lease > 0 {
		c.SyncReads = true // leased reads are linearizable reads
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Nemesis != "" && c.NemesisSeed == 0 {
		c.NemesisSeed = c.Seed
	}
	switch {
	case c.FaultFrac == 0 && c.Pattern > 0:
		c.FaultFrac = 0.5
	case c.FaultFrac < 0:
		c.FaultFrac = 0 // explicit inject-at-start
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.Slots == 0 {
		c.Slots = 4096
	}
	if c.Batch > 1 {
		if c.BatchWindow == 0 {
			c.BatchWindow = time.Millisecond
		}
		if c.Pipeline == 0 {
			c.Pipeline = 4
		}
	}
	if c.LatticePool == 0 {
		c.LatticePool = 8
	}
	if c.OpTimeout == 0 {
		switch c.Protocol {
		case ProtocolRegister:
			c.OpTimeout = 2 * time.Second
		default:
			c.OpTimeout = 5 * time.Second
		}
	}
	if c.Tick == 0 {
		c.Tick = 2 * time.Millisecond
	}
	if c.ViewC == 0 {
		c.ViewC = 5 * time.Millisecond
	}
	if c.MinDelay == 0 {
		c.MinDelay = DefaultMinDelay
	}
	if c.MaxDelay == 0 {
		c.MaxDelay = DefaultMaxDelay
	}
	return c
}

// Validate reports every way cfg is not a run Run can perform, before
// anything is deployed. It is the one check of a Config: Run calls it, and
// front ends (gqsload) call it on their parsed flags. A zero field is unset
// and takes its default, so a field the run's protocol, network or mode
// would ignore must be left zero rather than be silently dropped.
func (c Config) Validate() error {
	var bad []string
	reject := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	d := c.withDefaults()
	kv := d.Protocol == ProtocolKV
	switch d.Protocol {
	case ProtocolRegister, ProtocolSnapshot, ProtocolLattice, ProtocolKV:
	default:
		reject("unknown protocol %q", d.Protocol)
	}
	if d.Net != NetMem && d.Net != NetTCP {
		reject("unknown net %q (want %q or %q)", d.Net, NetMem, NetTCP)
	}
	if d.Nodes < 2 {
		reject("need at least 2 nodes, got %d", d.Nodes)
	}
	if d.Clients < 1 {
		reject("need at least 1 client, got %d", d.Clients)
	}
	if d.Rate < 0 {
		reject("rate must be non-negative (0 = closed loop), got %v", d.Rate)
	}
	if d.Duration <= 0 {
		reject("duration must be positive, got %v", d.Duration)
	}
	if d.Warmup < 0 {
		reject("warmup must be non-negative, got %v", d.Warmup)
	}
	if _, err := NewDist(d.Dist, d.Keys, d.ZipfS, d.ZipfV, rand.New(rand.NewSource(1))); err != nil {
		reject("%v", err)
	}
	if (c.ZipfS != 0 || c.ZipfV != 0) && d.Dist != DistZipf {
		reject("zipf parameters apply to the zipf distribution only, got %q", d.Dist)
	}
	if d.ReadFraction < 0 || d.ReadFraction > 1 {
		reject("read fraction must be in [0,1], got %v", d.ReadFraction)
	}
	if d.Shards < 1 {
		reject("shards must be at least 1, got %d", d.Shards)
	}
	if d.Shards > 1 && !kv {
		reject("sharding requires the kv protocol, got %q with %d shards", d.Protocol, d.Shards)
	}
	if (c.Slots != 0 || c.SyncReads || c.Lease != 0) && !kv {
		reject("slots, sync reads and read leases require the kv protocol, got %q", d.Protocol)
	}
	if d.Lease < 0 {
		reject("lease duration must be non-negative, got %v", d.Lease)
	}
	if c.Batch < 0 || c.Pipeline < 0 || c.BatchWindow < 0 {
		reject("batch, batch window and pipeline must be non-negative, got %d/%v/%d", c.Batch, c.BatchWindow, c.Pipeline)
	}
	if (c.Batch != 0 || c.BatchWindow != 0 || c.Pipeline != 0) && !kv {
		reject("batching/pipelining requires the kv protocol, got %q", d.Protocol)
	}
	if c.LatticePool != 0 && d.Protocol != ProtocolLattice {
		reject("a lattice pool requires the lattice protocol, got %q", d.Protocol)
	}
	if d.Pattern < 0 || d.Pattern > 4 {
		reject("pattern must be in 0..4, got %d", d.Pattern)
	}
	if d.Pattern > 0 {
		if d.Nodes != failure.Figure1N {
			reject("pattern injection needs the %d-process Figure-1 cluster, got %d nodes", failure.Figure1N, d.Nodes)
		}
		if d.Net != NetMem {
			reject("pattern injection needs the mem network (TCP has no fault injector)")
		}
		if d.FaultFrac < 0 || d.FaultFrac >= 1 {
			reject("fault fraction must be in [0,1), got %v", d.FaultFrac)
		}
	} else {
		if d.RestrictToUf {
			reject("restricting to U_f requires a pattern")
		}
		if c.FaultFrac != 0 {
			reject("a fault fraction requires a pattern")
		}
	}
	if d.Nemesis != "" {
		if !kv {
			reject("nemesis scenarios require the kv protocol, got %q", d.Protocol)
		}
		if d.Net != NetMem {
			reject("nemesis scenarios need the mem network (TCP has no fault surface)")
		}
		if d.Pattern > 0 {
			reject("nemesis scenarios and pattern injection are mutually exclusive")
		}
		if _, err := nemesis.Compile(d.Nemesis, d.NemesisSeed, d.Duration, d.Nodes); err != nil {
			reject("%v", err)
		}
	} else if c.NemesisSeed != 0 {
		reject("a nemesis seed requires a nemesis scenario")
	}
	if (c.MinDelay != 0 || c.MaxDelay != 0) && d.Net != NetMem {
		reject("min/max delay shape the simulated mem network only, got %q", d.Net)
	}
	if d.MinDelay < 0 || d.MaxDelay < 0 {
		reject("min/max delay must be non-negative, got %v/%v", d.MinDelay, d.MaxDelay)
	} else if d.MinDelay > d.MaxDelay {
		reject("min delay %v exceeds max delay %v (unset bounds default to %v/%v)",
			d.MinDelay, d.MaxDelay, DefaultMinDelay, DefaultMaxDelay)
	}
	if len(bad) > 0 {
		return errors.New(strings.Join(bad, "; "))
	}
	return nil
}

// opMetrics aggregates one operation class (reads or writes).
type opMetrics struct {
	hist *Histogram
	errs atomic.Uint64
}

// shardAware is implemented by targets that partition the keyspace; the
// driver keeps one opMetrics pair per shard and the report merges the
// histograms exactly (Histogram.Merge) instead of averaging percentiles.
type shardAware interface {
	shardCount() int
	shardOf(key int) int
}

// Run executes the workload described by cfg and returns its report. The
// context bounds the whole run (cancel it to stop early; operations in
// flight finish or time out and the report covers what completed).
func Run(ctx context.Context, cfg Config) (*Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("workload config: %w", err)
	}
	cfg = cfg.withDefaults()
	tgt, err := newTarget(cfg)
	if err != nil {
		return nil, fmt.Errorf("deploy workload target: %w", err)
	}
	defer tgt.close()

	// Determine which nodes clients call.
	qs, callers := callerNodes(cfg)

	// One metrics pair per shard (a single pair for unsharded targets);
	// the report merges the per-shard histograms bucket-exactly.
	nshards := 1
	sa, _ := tgt.(shardAware)
	if sa != nil {
		nshards = sa.shardCount()
	}
	reads := make([]*opMetrics, nshards)
	writes := make([]*opMetrics, nshards)
	for i := 0; i < nshards; i++ {
		reads[i] = &opMetrics{hist: NewHistogram()}
		writes[i] = &opMetrics{hist: NewHistogram()}
	}
	seconds := int(cfg.Duration/time.Second) + 1
	series := make([]atomic.Uint64, seconds)

	var pacer *Pacer
	if cfg.Rate > 0 {
		pacer = NewPacer(cfg.Rate, cfg.Clients)
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	start := time.Now()
	measureFrom := start.Add(cfg.Warmup)
	end := measureFrom.Add(cfg.Duration)
	// Bound pacer waits by the end of the run: at low rates a client could
	// otherwise block up to a full token interval past the deadline.
	paceCtx, paceCancel := context.WithDeadline(runCtx, end)
	defer paceCancel()

	// Mid-run fault injection.
	var faultAt time.Duration
	if cfg.Pattern > 0 {
		inj := tgt.injector()
		if inj == nil {
			return nil, fmt.Errorf("transport does not support fault injection")
		}
		f := qs.F.Patterns[cfg.Pattern-1]
		faultAt = cfg.Warmup + time.Duration(cfg.FaultFrac*float64(cfg.Duration))
		timer := time.AfterFunc(faultAt, func() { inj.ApplyPattern(f) })
		defer timer.Stop()
	}

	// record books one completed operation into the measured-window
	// accumulators; warmup operations and run-cancellation errors are
	// dropped. Shared by the synchronous path and the pipelined completion
	// goroutines.
	record := func(isRead bool, key int, t0 time.Time, lat time.Duration, oerr error) {
		if t0.Before(measureFrom) {
			return // warmup op
		}
		shardIdx := 0
		if sa != nil {
			shardIdx = sa.shardOf(key)
		}
		m := writes[shardIdx]
		if isRead {
			m = reads[shardIdx]
		}
		if oerr != nil {
			if runCtx.Err() != nil {
				return // run canceled, not a protocol failure
			}
			m.errs.Add(1)
			return
		}
		m.hist.Record(lat)
		idx := int(t0.Sub(measureFrom) / time.Second)
		if idx >= 0 && idx < len(series) {
			series[idx].Add(1)
		}
	}

	// Pipelined mode: writes issue asynchronously with up to cfg.Pipeline
	// outstanding per client, so consecutive group commits overlap instead
	// of each client serializing on one decision per op.
	at, _ := tgt.(asyncTarget)
	pipelined := cfg.Pipeline > 1 && at != nil

	var (
		wg    sync.WaitGroup
		opsWG sync.WaitGroup // in-flight async completions
	)

	// Nemesis scenario: the engine fires the compiled timeline against the
	// chaos shard's transport starting at the measurement boundary, while
	// dedicated probe clients record the linearizable history and
	// availability buckets that close the run (nemesisRun.finish).
	var nem *nemesisRun
	var nemDone chan struct{}
	if cfg.Nemesis != "" {
		sched, cerr := nemesis.Compile(cfg.Nemesis, cfg.NemesisSeed, cfg.Duration, cfg.Nodes)
		if cerr != nil {
			return nil, cerr // unreachable: compiled once in validate
		}
		kt, _ := tgt.(*kvTarget)
		ctl, ok := kt.st.Injector(0).(nemesis.Control)
		if !ok {
			return nil, fmt.Errorf("nemesis needs the mem transport's fault surface")
		}
		nem = newNemesisRun(sched, kt, ctl, seconds)
		nemDone = make(chan struct{})
		go func() {
			defer close(nemDone)
			if wait := time.Until(measureFrom); wait > 0 {
				t := time.NewTimer(wait)
				select {
				case <-t.C:
				case <-runCtx.Done():
					t.Stop()
					return
				}
			}
			nem.applied = nemesis.Run(runCtx, clock.Real, nem.sched, nem.ctl, nem)
		}()
		for i := 0; i < nemesisProbes; i++ {
			wg.Add(1)
			go func(probe int) {
				defer wg.Done()
				nem.probeLoop(runCtx, probe, measureFrom, end, cfg)
			}(i)
		}
	}
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(client)*7919))
			dist, derr := NewDist(cfg.Dist, cfg.Keys, cfg.ZipfS, cfg.ZipfV, rng)
			if derr != nil {
				return // unreachable: parameters pre-flighted above
			}
			p := callers[client%len(callers)]
			var inflight chan struct{}
			if pipelined {
				inflight = make(chan struct{}, cfg.Pipeline)
			}
			for op := 0; ; op++ {
				if runCtx.Err() != nil {
					return
				}
				if pacer != nil {
					if pacer.Wait(paceCtx) != nil {
						return
					}
				}
				now := time.Now()
				if !now.Before(end) {
					return
				}
				key := dist.Next()
				isRead := rng.Float64() < cfg.ReadFraction
				var val string
				if !isRead {
					val = fmt.Sprintf("c%d-%d", client, op) // before t0: not part of the measured op
				}
				if pipelined && !isRead {
					select {
					case inflight <- struct{}{}:
					case <-runCtx.Done():
						return
					}
					opCtx, opCancel := context.WithTimeout(runCtx, cfg.OpTimeout)
					t0 := time.Now()
					ch := at.writeAsync(opCtx, p, key, val)
					opsWG.Add(1)
					go func(key int, t0 time.Time) {
						defer opsWG.Done()
						defer func() { <-inflight }()
						defer opCancel()
						var oerr error
						select {
						case res := <-ch:
							oerr = res.Err
						case <-opCtx.Done():
							oerr = opCtx.Err()
						}
						record(false, key, t0, time.Since(t0), oerr)
					}(key, t0)
					continue
				}
				opCtx, opCancel := context.WithTimeout(runCtx, cfg.OpTimeout)
				t0 := time.Now()
				var oerr error
				if isRead {
					oerr = tgt.read(opCtx, p, key)
				} else {
					oerr = tgt.write(opCtx, p, key, val)
				}
				lat := time.Since(t0)
				opCancel()
				record(isRead, key, t0, lat, oerr)
			}
		}(c)
	}
	wg.Wait()
	opsWG.Wait()
	if nem != nil {
		<-nemDone // the engine finishes once its last event is applied
	}

	// An interrupted run measured less than the configured window; report
	// rates over the window that actually elapsed. Cancellation during
	// warmup means nothing was measured at all.
	measured := cfg.Duration
	if elapsed := time.Since(measureFrom); elapsed < measured {
		measured = elapsed
	}
	if measured <= 0 {
		measured = time.Nanosecond
	}
	if nem != nil {
		nem.finish(qs, measured)
	}
	return buildReport(cfg, measured, qs, callers, reads, writes, series, faultAt, tgt, nem), nil
}

// callerNodes returns the quorum system in force and the nodes clients are
// assigned to (round robin).
func callerNodes(cfg Config) (quorum.System, []int) {
	qs, _ := quorumSystemFor(cfg.Nodes)
	callers := make([]int, 0, cfg.Nodes)
	if cfg.RestrictToUf && cfg.Pattern > 0 {
		f := qs.F.Patterns[cfg.Pattern-1]
		callers = qs.Uf(quorum.Network(cfg.Nodes), f).Elems()
		if len(callers) > 0 {
			return qs, callers
		}
	}
	for i := 0; i < cfg.Nodes; i++ {
		callers = append(callers, i)
	}
	return qs, callers
}
