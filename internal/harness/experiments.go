package harness

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/lattice"
	"repro/internal/quorum"
	"repro/internal/transport"
	"repro/internal/viewsync"
	"repro/internal/workload"
)

// Experiment is one entry of the registry: a table the harness regenerates
// from a fresh cluster or workload run on every call.
type Experiment struct {
	ID string
	// Heavy marks the entries -short test and benchmark runs skip: the
	// multi-second workload runs E17–E22, and E13, whose per-instance
	// ticker row (16 tickers at the fast configs' 500µs tick) cannot
	// complete a read within opTimeout under the race detector.
	Heavy bool
	Run   func(context.Context, Config) (*Table, error)
}

// Experiments is every experiment of the reproduction, in the order
// cmd/experiments renders them. Each table's title names the figure,
// example or theorem of the paper it maps to; the pure ones ignore ctx
// and cfg.
var Experiments = []Experiment{
	{ID: "E01", Run: e01Figure1Validation},
	{ID: "E02", Run: e02Example9Existence},
	{ID: "E03", Run: e03ClassicalEquivalence},
	{ID: "E04", Run: e04ClassicalQAF},
	{ID: "E05", Run: e05GeneralizedQAF},
	{ID: "E06", Run: e06Register},
	{ID: "E07", Run: e07Snapshot},
	{ID: "E08", Run: e08LatticeAgreement},
	{ID: "E09", Run: e09ViewSyncOverlap},
	{ID: "E10", Run: e10Consensus},
	{ID: "E10b", Run: e10bConsensusGST},
	{ID: "E11", Run: e11BaselineComparison},
	{ID: "E12", Run: e12ThresholdSweep},
	{ID: "E13", Heavy: true, Run: e13PropagationBatching},
	{ID: "E14", Run: e14TransportModes},
	{ID: "E15", Run: e15ScenarioCatalog},
	{ID: "E16", Run: e16ReplicatedKV},
	{ID: "E17", Heavy: true, Run: e17Workload},
	{ID: "E18", Heavy: true, Run: e18ShardScaling},
	{ID: "E19", Heavy: true, Run: e19BatchingSweep},
	{ID: "E20", Heavy: true, Run: e20ReadPathSweep},
	{ID: "E21", Heavy: true, Run: e21NemesisScenarios},
	{ID: "E22", Heavy: true, Run: e22CompactionSoak},
}

// opTimeout bounds a single protocol operation in the experiments.
const opTimeout = 30 * time.Second

// stallTimeout is how long we give a protocol expected to stall before
// declaring it stalled.
const stallTimeout = 400 * time.Millisecond

// e01Figure1Validation reproduces Figure 1 and Examples 2, 7 and 8: the
// 4-process (F, R, W) is a valid GQS, each W_i is f_i-available and
// f_i-reachable from R_i, and no available read quorum is strongly
// connected.
func e01Figure1Validation(context.Context, Config) (*Table, error) {
	qs := quorum.Figure1()
	g := quorum.Network(qs.F.N)
	t := NewTable("E01", "Figure 1 / Examples 2,7,8: GQS validity",
		"pattern", "W_i available", "W_i reachable from R_i", "R_i strongly connected", "U_f")
	if err := qs.Validate(); err != nil {
		return nil, fmt.Errorf("figure 1 system invalid: %w", err)
	}
	for i, f := range qs.F.Patterns {
		res := f.Residual(g)
		t.AddRow(
			f.Name,
			yesNo(quorum.FAvailable(g, f, qs.Writes[i])),
			yesNo(quorum.FReachable(g, f, qs.Writes[i], qs.Reads[i])),
			yesNo(res.StronglyConnectedSubset(qs.Reads[i])),
			qs.Uf(g, f).String(),
		)
	}
	t.AddNote("Consistency and Availability hold (Validate passed); read quorums are only unidirectionally connected, the GQS relaxation over QS+.")
	return t, nil
}

// e02Example9Existence reproduces Example 9: F admits a GQS with
// U_f = {a,b},{b,c},{c,d},{d,a}; F' (which additionally fails channel
// (a,b) under f1) admits none.
func e02Example9Existence(context.Context, Config) (*Table, error) {
	t := NewTable("E02", "Example 9: GQS existence decision",
		"fail-prone system", "GQS exists", "witness #reads", "witness #writes")
	sys := failure.Figure1()
	qs, ok := quorum.Find(quorum.Network(sys.N), sys)
	if !ok {
		return nil, fmt.Errorf("decision procedure rejected Figure 1's F")
	}
	t.AddRow("F (Figure 1)", yesNo(ok), fmt.Sprintf("%d", len(qs.Reads)), fmt.Sprintf("%d", len(qs.Writes)))

	f1 := sys.Patterns[0].Clone()
	f1.Chans[failure.Channel{From: failure.A, To: failure.B}] = true
	fPrime := failure.NewSystem(sys.N, f1.WithName("f1'"), sys.Patterns[1], sys.Patterns[2], sys.Patterns[3])
	_, okPrime := quorum.Find(quorum.Network(fPrime.N), fPrime)
	t.AddRow("F' (= F with (a,b) also failing under f1)", yesNo(okPrime), "-", "-")
	if okPrime {
		return nil, fmt.Errorf("decision procedure accepted F', contradicting Example 9")
	}
	t.AddNote("By Theorem 2, no register/snapshot/lattice-agreement implementation is obstruction-free anywhere under F'.")
	return t, nil
}

// e03ClassicalEquivalence reproduces Examples 4-6 and the remark after
// Definition 2: for crash-only threshold systems, GQS existence coincides
// with the classical n >= 2k+1 bound.
func e03ClassicalEquivalence(context.Context, Config) (*Table, error) {
	t := NewTable("E03", "Examples 4-6: classical degeneration of GQS",
		"n", "k", "classical bound n>=2k+1", "GQS exists", "|R| (size n-k)", "|W| (size k+1)")
	for n := 2; n <= 7; n++ {
		for k := 0; k <= (n+1)/2; k++ {
			sys := failure.Threshold(n, k)
			exists := quorum.Exists(sys)
			want := n >= 2*k+1
			if exists != want {
				return nil, fmt.Errorf("n=%d k=%d: GQS existence %v != classical bound %v", n, k, exists, want)
			}
			readSz, writeSz := "-", "-"
			if want {
				readSz = fmt.Sprintf("%d", n-k)
				writeSz = fmt.Sprintf("%d", k+1)
			}
			t.AddRow(fmt.Sprintf("%d", n), fmt.Sprintf("%d", k), yesNo(want), yesNo(exists), readSz, writeSz)
		}
	}
	t.AddNote("Definition 2 degenerates to Definition 1 when no channels fail; quorum sizes show the Example-6 read/write tradeoff.")
	return t, nil
}

// latencyDist runs fn `iters` times, recording each latency in a workload
// histogram so experiments report percentiles rather than a bare mean.
func latencyDist(iters int, fn func() error) (*workload.Histogram, error) {
	h := workload.NewHistogram()
	for i := 0; i < iters; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return nil, err
		}
		h.Record(time.Since(start))
	}
	return h, nil
}

// p5099 formats a histogram as "p50/p99".
func p5099(h *workload.Histogram) string {
	return ms(h.Quantile(0.50)) + "/" + ms(h.Quantile(0.99))
}

// e04ClassicalQAF measures the Figure-2 access functions on a crash-only
// majority system (their intended habitat).
func e04ClassicalQAF(ctx context.Context, cfg Config) (*Table, error) {
	qs := quorum.Majority(3, 1)
	t := NewTable("E04", "Figure 2: classical quorum access functions (majority, crash-only)",
		"scenario", "get p50/p99", "set p50/p99", "terminates")
	for _, sc := range []struct {
		name  string
		crash int // process to crash, -1 for none
	}{{"failure-free", -1}, {"one crash", 2}} {
		c := NewRegisterCluster(3, qs.Reads, qs.Writes, true, cfg)
		if sc.crash >= 0 {
			c.Net.Crash(failure.Proc(sc.crash))
		}
		ctx, cancel := context.WithTimeout(ctx, opTimeout)
		setDist, err := latencyDist(5, func() error {
			_, e := c.Registers[0].Write(ctx, "v")
			return e
		})
		if err != nil {
			cancel()
			c.Stop()
			return nil, fmt.Errorf("E04 %s write: %w", sc.name, err)
		}
		getDist, err := latencyDist(5, func() error {
			_, _, e := c.Registers[1].Read(ctx)
			return e
		})
		cancel()
		c.Stop()
		if err != nil {
			return nil, fmt.Errorf("E04 %s read: %w", sc.name, err)
		}
		t.AddRow(sc.name, p5099(getDist), p5099(setDist), "yes")
	}
	return t, nil
}

// e05GeneralizedQAF measures the Figure-3 access functions under every
// Figure-1 pattern, from within U_f.
func e05GeneralizedQAF(ctx context.Context, cfg Config) (*Table, error) {
	qs := quorum.Figure1()
	g := quorum.Network(qs.F.N)
	t := NewTable("E05", "Figure 3: generalized quorum access functions under Figure-1 patterns",
		"pattern", "caller", "write p50/p99", "read p50/p99", "real-time ordering")
	for _, f := range qs.F.Patterns {
		uf := qs.Uf(g, f).Elems()
		c := NewRegisterCluster(4, qs.Reads, qs.Writes, false, cfg)
		c.Net.ApplyPattern(f)
		ctx, cancel := context.WithTimeout(ctx, opTimeout)
		caller := uf[0]
		reader := uf[1]
		writeDist, err := latencyDist(3, func() error {
			_, e := c.Registers[caller].Write(ctx, "x-"+f.Name)
			return e
		})
		if err != nil {
			cancel()
			c.Stop()
			return nil, fmt.Errorf("E05 %s write: %w", f.Name, err)
		}
		var lastRead string
		readDist, err := latencyDist(3, func() error {
			v, _, e := c.Registers[reader].Read(ctx)
			lastRead = v
			return e
		})
		cancel()
		c.Stop()
		if err != nil {
			return nil, fmt.Errorf("E05 %s read: %w", f.Name, err)
		}
		rto := lastRead == "x-"+f.Name
		t.AddRow(f.Name, fmt.Sprintf("p%d/p%d", caller, reader), p5099(writeDist), p5099(readDist), yesNo(rto))
		if !rto {
			return nil, fmt.Errorf("E05 %s: read %q did not observe the completed write", f.Name, lastRead)
		}
	}
	t.AddNote("Reads at U_f members observe every completed write despite read quorums being reachable only unidirectionally (Theorem 3).")
	return t, nil
}

// e11BaselineComparison is the paper's motivating comparison: classical ABD
// stalls under f1 while the GQS register completes; in the failure-free case
// the GQS clocks cost a modest latency overhead.
func e11BaselineComparison(ctx context.Context, cfg Config) (*Table, error) {
	qs := quorum.Figure1()
	t := NewTable("E11", "GQS register vs classical ABD (Figure-1 system)",
		"scenario", "protocol", "write latency", "outcome", "msgs sent")

	run := func(classical bool, applyF1 bool) (time.Duration, string, int64, error) {
		c := NewRegisterCluster(4, qs.Reads, qs.Writes, classical, cfg)
		defer c.Stop()
		if applyF1 {
			c.Net.ApplyPattern(qs.F.Patterns[0])
		}
		timeout := opTimeout
		if classical && applyF1 {
			timeout = stallTimeout
		}
		ctx, cancel := context.WithTimeout(ctx, timeout)
		defer cancel()
		start := time.Now()
		_, err := c.Registers[0].Write(ctx, "cmp")
		lat := time.Since(start)
		stats := c.Net.Stats()
		if err != nil {
			if classical && applyF1 {
				return lat, "stalls (expected)", stats.Sent, nil
			}
			return 0, "", 0, err
		}
		return lat, "completes", stats.Sent, nil
	}

	for _, sc := range []struct {
		name      string
		classical bool
		f1        bool
	}{
		{"failure-free", true, false},
		{"failure-free", false, false},
		{"pattern f1", true, true},
		{"pattern f1", false, true},
	} {
		proto := "GQS (Fig 3)"
		if sc.classical {
			proto = "classical ABD (Fig 2)"
		}
		lat, outcome, sent, err := run(sc.classical, sc.f1)
		if err != nil {
			return nil, fmt.Errorf("E11 %s/%s: %w", sc.name, proto, err)
		}
		t.AddRow(sc.name, proto, ms(lat), outcome, fmt.Sprintf("%d", sent))
	}
	t.AddNote("The shape matches the paper's motivation: under f1 the request/response pattern cannot reach read-quorum member c, so classical ABD never returns; the logical-clock protocol completes. Failure-free, the GQS protocol pays the extra CLOCK round plus periodic pushes.")
	return t, nil
}

// e09ViewSyncOverlap measures Proposition 2: the guaranteed overlap of
// correct processes in view v grows without bound.
func e09ViewSyncOverlap(context.Context, Config) (*Table, error) {
	const c = 10 * time.Millisecond
	const skew = 25 * time.Millisecond
	t := NewTable("E09", "Proposition 2: view overlap grows without bound (C=10ms, entry skew 25ms)",
		"view", "entry time", "duration v*C", "guaranteed overlap")
	prev := time.Duration(-1)
	for _, v := range []viewsync.View{1, 2, 3, 5, 8, 13, 21} {
		ov := viewsync.Overlap(v, c, skew)
		t.AddRow(fmt.Sprintf("%d", v),
			viewsync.EntryTime(v, c).String(),
			(time.Duration(v) * c).String(),
			ov.String())
		if ov < prev {
			return nil, fmt.Errorf("overlap not monotone at view %d", v)
		}
		prev = ov
	}
	t.AddNote("For any target d there is a view V with overlap >= d for all v >= V.")
	return t, nil
}

// e10Consensus measures Theorem 5: consensus under each Figure-1 pattern,
// and decision latency relative to GST under partial synchrony.
func e10Consensus(ctx context.Context, cfg Config) (*Table, error) {
	qs := quorum.Figure1()
	g := quorum.Network(qs.F.N)
	t := NewTable("E10", "Figure 6 / Theorem 5: consensus under Figure-1 patterns",
		"pattern", "proposers", "decision", "agreement", "latency")
	for _, f := range qs.F.Patterns {
		uf := qs.Uf(g, f).Elems()
		c := NewConsensusCluster(4, qs.Reads, qs.Writes, cfg)
		c.Net.ApplyPattern(f)
		ctx, cancel := context.WithTimeout(ctx, 2*opTimeout)
		start := time.Now()
		type res struct {
			v   string
			err error
		}
		results := make(chan res, len(uf))
		for _, p := range uf {
			p := p
			go func() {
				v, err := c.Consensus[p].Propose(ctx, fmt.Sprintf("val-p%d", p))
				results <- res{v, err}
			}()
		}
		var decided []string
		var firstErr error
		for range uf {
			r := <-results
			if r.err != nil && firstErr == nil {
				firstErr = r.err
			}
			decided = append(decided, r.v)
		}
		lat := time.Since(start)
		cancel()
		c.Stop()
		if firstErr != nil {
			return nil, fmt.Errorf("E10 %s: %w", f.Name, firstErr)
		}
		agree := true
		for _, v := range decided {
			if v != decided[0] {
				agree = false
			}
		}
		if !agree {
			return nil, fmt.Errorf("E10 %s: agreement violated: %v", f.Name, decided)
		}
		t.AddRow(f.Name, fmt.Sprintf("%v", uf), decided[0], yesNo(agree), ms(lat))
	}
	return t, nil
}

// e10bConsensusGST measures decision latency against GST under partial
// synchrony: decisions land shortly after GST, tracking the Theorem-5 proof
// shape (first post-GST U_f-led view + ~3 message delays).
func e10bConsensusGST(ctx context.Context, cfg Config) (*Table, error) {
	t := NewTable("E10b", "Consensus decision latency vs GST (pattern f1, partial synchrony)",
		"GST", "delta", "decision latency", "decided after GST")
	for _, gst := range []time.Duration{50 * time.Millisecond, 150 * time.Millisecond, 300 * time.Millisecond} {
		lat, after, err := e10bDecide(ctx, cfg, gst, transport.UniformDelay{Min: 0, Max: gst})
		if err != nil {
			return nil, fmt.Errorf("E10b gst=%v: %w", gst, err)
		}
		t.AddRow(gst.String(), "2ms", ms(lat), yesNo(after))
	}
	t.AddNote("Decisions require a post-GST view led by a U_f member; latency grows with GST as the proof of Theorem 5 predicts. \"Decided after GST\" compares the decision instant with GST, both measured from the network's start.")
	return t, nil
}

// e10bDecide runs one consensus under pattern f1 with delays following
// before until gst and at most 2ms after it, and returns the latency of a
// proposal made at the start and whether its decision came at or after
// GST, counted from the network's start as the delay model counts it.
func e10bDecide(ctx context.Context, cfg Config, gst time.Duration, before transport.DelayModel) (time.Duration, bool, error) {
	qs := quorum.Figure1()
	cfg.Delay = transport.PartialSync{GST: gst, Before: before, Delta: 2 * time.Millisecond}
	cl := NewConsensusCluster(4, qs.Reads, qs.Writes, cfg)
	defer cl.Stop()
	cl.Net.ApplyPattern(qs.F.Patterns[0])
	ctx, cancel := context.WithTimeout(ctx, 2*opTimeout)
	defer cancel()
	start := time.Now()
	if _, err := cl.Consensus[0].Propose(ctx, "gst-probe"); err != nil {
		return 0, false, err
	}
	decided := time.Now()
	return decided.Sub(start), decided.Sub(cl.Net.Started()) >= gst, nil
}

// e12ThresholdSweep reproduces the Example-6 tradeoff and measures the
// decision procedure's cost as n grows.
func e12ThresholdSweep(context.Context, Config) (*Table, error) {
	t := NewTable("E12", "Threshold sweep: GQS existence + decision-procedure cost",
		"n", "k", "patterns", "GQS exists", "decision time")
	for n := 3; n <= 11; n += 2 {
		k := (n - 1) / 2
		sys := failure.Threshold(n, k)
		start := time.Now()
		exists := quorum.Exists(sys)
		dt := time.Since(start)
		t.AddRow(fmt.Sprintf("%d", n), fmt.Sprintf("%d", k),
			fmt.Sprintf("%d", len(sys.Patterns)), yesNo(exists), dt.String())
		if !exists {
			return nil, fmt.Errorf("E12 n=%d k=%d: GQS must exist", n, k)
		}
	}
	return t, nil
}

// e08LatticeAgreement validates §6's object under concurrency: outputs are
// pairwise comparable and bracketed by the inputs.
func e08LatticeAgreement(ctx context.Context, cfg Config) (*Table, error) {
	qs := quorum.Figure1()
	l := lattice.SetLattice{}
	t := NewTable("E08", "Lattice agreement (Theorem 1): proposals at U_f1 under f1",
		"process", "input", "output", "downward valid", "upward valid")
	c := NewAgreementCluster(4, l, qs.Reads, qs.Writes, cfg)
	defer c.Stop()
	c.Net.ApplyPattern(qs.F.Patterns[0])

	ctx, cancel := context.WithTimeout(ctx, 4*opTimeout)
	defer cancel()
	procs := []int{0, 1} // U_f1
	inputs := make([]string, len(procs))
	outputs := make([]string, len(procs))
	errs := make(chan error, len(procs))
	for i, p := range procs {
		i, p := i, p
		inputs[i] = lattice.EncodeSet(fmt.Sprintf("x%d", p))
		go func() {
			out, err := c.Agreement[p].Propose(ctx, inputs[i])
			outputs[i] = out
			errs <- err
		}()
	}
	for range procs {
		if err := <-errs; err != nil {
			return nil, fmt.Errorf("E08 propose: %w", err)
		}
	}
	all, err := lattice.JoinAll(l, inputs)
	if err != nil {
		return nil, err
	}
	for i, p := range procs {
		down, err := l.Leq(inputs[i], outputs[i])
		if err != nil {
			return nil, err
		}
		up, err := l.Leq(outputs[i], all)
		if err != nil {
			return nil, err
		}
		if !down || !up {
			return nil, fmt.Errorf("E08 validity violated at p%d", p)
		}
		t.AddRow(fmt.Sprintf("p%d", p), inputs[i], outputs[i], yesNo(down), yesNo(up))
	}
	comp, err := lattice.Comparable(l, outputs[0], outputs[1])
	if err != nil {
		return nil, err
	}
	if !comp {
		return nil, fmt.Errorf("E08 comparability violated: %q vs %q", outputs[0], outputs[1])
	}
	t.AddNote("Outputs are pairwise comparable (Comparability).")
	return t, nil
}

// e07Snapshot validates Theorem 1 for snapshots under f1.
func e07Snapshot(ctx context.Context, cfg Config) (*Table, error) {
	qs := quorum.Figure1()
	t := NewTable("E07", "Atomic snapshot (Theorem 1): update/scan at U_f1 under f1",
		"step", "process", "result", "latency")
	c := NewSnapshotCluster(4, qs.Reads, qs.Writes, cfg)
	defer c.Stop()
	c.Net.ApplyPattern(qs.F.Patterns[0])
	ctx, cancel := context.WithTimeout(ctx, 4*opTimeout)
	defer cancel()

	start := time.Now()
	if err := c.Snapshots[0].Update(ctx, "ua"); err != nil {
		return nil, fmt.Errorf("E07 update a: %w", err)
	}
	t.AddRow("update(ua)", "a", "ok", ms(time.Since(start)))
	start = time.Now()
	if err := c.Snapshots[1].Update(ctx, "ub"); err != nil {
		return nil, fmt.Errorf("E07 update b: %w", err)
	}
	t.AddRow("update(ub)", "b", "ok", ms(time.Since(start)))
	start = time.Now()
	view, err := c.Snapshots[0].Scan(ctx)
	if err != nil {
		return nil, fmt.Errorf("E07 scan: %w", err)
	}
	t.AddRow("scan()", "a", fmt.Sprintf("%v", view), ms(time.Since(start)))
	if view[0] != "ua" || view[1] != "ub" {
		return nil, fmt.Errorf("E07 scan missed completed updates: %v", view)
	}
	return t, nil
}

// e06Register runs the register workload of Theorem 1 under f1 and checks
// linearizability with the Appendix-B dependency-graph checker. The heavier
// randomized version lives in the register package's tests; this experiment
// reports the measured shape.
func e06Register(ctx context.Context, cfg Config) (*Table, error) {
	qs := quorum.Figure1()
	t := NewTable("E06", "MWMR register (Theorem 1): ops at U_f1 under f1",
		"op", "process", "value", "latency")
	c := NewRegisterCluster(4, qs.Reads, qs.Writes, false, cfg)
	defer c.Stop()
	c.Net.ApplyPattern(qs.F.Patterns[0])
	ctx, cancel := context.WithTimeout(ctx, 2*opTimeout)
	defer cancel()

	for i := 0; i < 3; i++ {
		val := fmt.Sprintf("v%d", i)
		p := i % 2
		start := time.Now()
		if _, err := c.Registers[p].Write(ctx, val); err != nil {
			return nil, fmt.Errorf("E06 write: %w", err)
		}
		t.AddRow("write", fmt.Sprintf("p%d", p), val, ms(time.Since(start)))
		q := (i + 1) % 2
		start = time.Now()
		got, _, err := c.Registers[q].Read(ctx)
		if err != nil {
			return nil, fmt.Errorf("E06 read: %w", err)
		}
		t.AddRow("read", fmt.Sprintf("p%d", q), got, ms(time.Since(start)))
		if got != val {
			return nil, fmt.Errorf("E06: read %q after writing %q (atomicity violated)", got, val)
		}
	}
	t.AddNote("Full randomized linearizability checking runs in the test suite (internal/register, internal/lincheck).")
	return t, nil
}

// e16ReplicatedKV measures the end-to-end application layer: a replicated
// key-value store over GQS state machine replication, failure-free and under
// pattern f1, provisioned through the Cluster adoption surface. It
// demonstrates that the paper's bound lifts from single objects to a full
// replicated service: writes at U_f members keep committing under
// connectivity no majority-quorum SMR system can express.
func e16ReplicatedKV(ctx context.Context, cfg Config) (*Table, error) {
	qs := quorum.Figure1()
	t := NewTable("E16", "Replicated KV over GQS state machine replication (3 writes + barrier + read)",
		"scenario", "writer(s)", "commit mean", "sync+read", "consistent")

	run := func(applyF1 bool) (time.Duration, time.Duration, error) {
		cfg := cfg.withDefaults()
		cl, err := core.Open(failure.Figure1(),
			core.WithQuorums(qs.Reads, qs.Writes),
			core.WithMem(transport.WithDelay(cfg.delayModel()), transport.WithSeed(cfg.Seed)),
			core.WithViewC(cfg.ViewC),
			core.WithSlots(8),
		)
		if err != nil {
			return 0, 0, err
		}
		defer cl.Close()
		kv, err := cl.KV("e16")
		if err != nil {
			return 0, 0, err
		}
		writers := []int{0, 1, 2}
		if applyF1 {
			if err := cl.InjectPattern(qs.F.Patterns[0]); err != nil {
				return 0, 0, err
			}
			writers = []int{0, 1, 0} // U_f1 members only
		}
		// Generous budget: commits need U_f-led views, whose real duration
		// stretches well past v*C when the host is loaded (e.g. parallel
		// package tests on small CI runners).
		ctx, cancel := context.WithTimeout(ctx, 4*opTimeout)
		defer cancel()

		start := time.Now()
		for i, w := range writers {
			if _, err := kv.At(failure.Proc(w)).Set(ctx, "key", fmt.Sprintf("v%d", i)); err != nil {
				return 0, 0, fmt.Errorf("set %d at node %d: %w", i, w, err)
			}
		}
		commitMean := time.Since(start) / time.Duration(len(writers))

		reader := kv.At(1)
		start = time.Now()
		if err := reader.Sync(ctx); err != nil {
			return 0, 0, fmt.Errorf("sync: %w", err)
		}
		v, ok, err := reader.Get(ctx, "key")
		if err != nil || !ok {
			return 0, 0, fmt.Errorf("get: ok=%v err=%v", ok, err)
		}
		readLat := time.Since(start)
		if v != fmt.Sprintf("v%d", len(writers)-1) {
			return 0, 0, fmt.Errorf("stale read %q", v)
		}
		return commitMean, readLat, nil
	}

	for _, sc := range []struct {
		name    string
		f1      bool
		writers string
	}{
		{"failure-free", false, "p0,p1,p2"},
		{"pattern f1", true, "U_f1 = {a,b}"},
	} {
		commit, read, err := run(sc.f1)
		if err != nil {
			return nil, fmt.Errorf("E16 %s: %w", sc.name, err)
		}
		t.AddRow(sc.name, sc.writers, ms(commit), ms(read), "yes")
	}
	t.AddNote("Each write is one consensus slot; the barrier read is linearizable (commits a no-op before reading the decided prefix).")
	t.AddNote("Latency grows for later slots: the paper's communication-free synchronizer makes view v last v*C, so slot instances idle since startup are already in long views when first used, and under f1 only every other leader is in U_f. This is the cost of Prop 2's simplicity, not of the GQS quorums.")
	return t, nil
}
