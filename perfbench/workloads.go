package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	gqs "repro"
)

// hop is the pinned one-way delay of every MemNetwork hop.
const hop = 500 * time.Microsecond

// spec defines one workload.
type spec struct {
	name     string
	rate     float64 // operations due per second
	readFrac float64
	keys     int  // KV keys or registers
	zipf     bool // Zipf(1.1) keys instead of uniform
	kv       bool // one KV; otherwise registers
	lease    bool // KV: read lease held by process 0
	f1       bool // registers: MemNetwork with pattern f1; otherwise loopback TCP
}

var specs = map[string]spec{
	"kv-write": {name: "kv-write", rate: 1500, readFrac: 0, keys: 1024, kv: true},
	"kv-read":  {name: "kv-read", rate: 10000, readFrac: 0.95, keys: 1024, zipf: true, kv: true, lease: true},
	"reg-tcp":  {name: "reg-tcp", rate: 1000, readFrac: 0.5, keys: 64},
	"reg-f1":   {name: "reg-f1", rate: 40, readFrac: 0.5, keys: 16, f1: true},
}

// open opens and warms the workload's cluster, returning it with its
// set-up time.
func (s spec) open(ctx context.Context, seed int64, traced bool) (system, time.Duration, error) {
	if s.kv {
		return openKV(ctx, seed, traced, s.keys, s.lease)
	}
	return openReg(ctx, seed, traced, s.keys, s.f1)
}

// system is a cluster under load: it performs generated operations, checks
// them afterwards and exposes the layers' public counters.
type system interface {
	do(ctx context.Context, op *opIn, out *opOut)
	verify(ctx context.Context, in *inputs, res *results) *checks
	counters() counters
	cluster() *gqs.Cluster
	tap() *tapNet
	close()
}

// counters are the layers' public Metrics() counters, summed over
// processes, read at the window's start and end.
type counters struct {
	failovers                    uint64 // core
	localReads, fallbacks, gated uint64 // lease
	renewFails, barrierRounds    uint64 // lease
	checkpoints, truncations     uint64 // smr
	peakOcc                      int64  // smr
	qafGets, qafSets             int64  // qaf (register accessors)
}

// checks collects correctness violations; bad marks the operations they
// are charged to, which then count as failed.
type checks struct {
	violations int
	first      string
	bad        map[int]bool
	// readLat holds the latencies of the post-window verification reads
	// (kv-write has no reads of its own in the window).
	readLat []float64
}

func newChecks() *checks { return &checks{bad: map[int]bool{}} }

func (c *checks) ok() bool { return c.violations == 0 }

func (c *checks) fail(op int, format string, args ...any) {
	c.violations++
	if c.first == "" {
		c.first = fmt.Sprintf(format, args...)
	}
	if op >= 0 {
		c.bad[op] = true
	}
}

// openNet returns the cluster options selecting the workload's transport.
// Untraced runs use the library's own transport options; traced runs build
// the same transport themselves and wrap it in a recording tapNet.
func openNet(seed int64, traced, tcp bool) ([]gqs.ClusterOption, *tapNet, error) {
	delay := gqs.WithDelay(gqs.UniformDelay{Min: hop, Max: hop})
	if !traced {
		if tcp {
			return []gqs.ClusterOption{gqs.WithTCP()}, nil, nil
		}
		return []gqs.ClusterOption{gqs.WithMem(delay, gqs.WithSeed(seed))}, nil, nil
	}
	var t *tapNet
	if tcp {
		eps, err := openTCP(4)
		if err != nil {
			return nil, nil, err
		}
		t = newTap(tcpComposite(eps), 0)
	} else {
		t = newTap(gqs.NewMemNetwork(4, delay, gqs.WithSeed(seed)), hop)
	}
	return []gqs.ClusterOption{gqs.WithNetwork(t)}, t, nil
}

// openTCP opens one loopback TCP endpoint per process and tells each the
// others' ephemeral ports, as gqs.WithTCP does.
func openTCP(n int) ([]*gqs.TCPNetwork, error) {
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = "127.0.0.1:0"
	}
	eps := make([]*gqs.TCPNetwork, n)
	for i := range eps {
		ep, err := gqs.NewTCPNetwork(gqs.Proc(i), addrs)
		if err != nil {
			for _, prev := range eps[:i] {
				prev.Close()
			}
			return nil, err
		}
		eps[i] = ep
	}
	for i := range eps {
		for j := range eps {
			eps[j].SetPeerAddr(gqs.Proc(i), eps[i].Addr())
		}
	}
	return eps, nil
}

// base holds what every system shares: the cluster and, in traced runs,
// the wrapped transport the system owns.
type base struct {
	c *gqs.Cluster
	t *tapNet
}

func (b *base) cluster() *gqs.Cluster { return b.c }
func (b *base) tap() *tapNet          { return b.t }

func (b *base) close() {
	if b.c != nil {
		b.c.Close()
		b.c = nil
	}
	if b.t != nil {
		b.t.Close()
		b.t = nil
	}
}

// --- KV ---

// pos is a write's place in the log: slot, then index within the slot's
// group commit.
type pos struct {
	slot int64
	idx  int
}

var noPos = pos{slot: -1}

func (p pos) less(q pos) bool { return p.slot < q.slot || (p.slot == q.slot && p.idx < q.idx) }

type kvSystem struct {
	base
	kv      *gqs.KVClient
	keys    []string
	freshen bool // record read floors (kv-read)

	mu    sync.Mutex
	floor []pos // per key: highest acknowledged write
}

// openKV opens the Figure-1 cluster on pinned 500 µs MemNetwork hops with
// one KV: group commit at library defaults (1 ms window), compaction at the
// interval gqsload -compact derives from the default slot budget, and,
// when lease is set, a read lease held by process 0. The returned duration
// runs from opening the cluster until the KV completed a write and (with
// the lease) the holder served a leased read.
func openKV(ctx context.Context, seed int64, traced bool, keys int, lease bool) (system, time.Duration, error) {
	q := gqs.Figure1GQS()
	start := time.Now()
	opts, t, err := openNet(seed, traced, false)
	if err != nil {
		return nil, 0, err
	}
	opts = append(opts,
		gqs.WithQuorums(q.Reads, q.Writes),
		gqs.WithBatch(time.Millisecond, 0),
		gqs.WithCompaction(gqs.CompactionOptions{Interval: compactionInterval(defaultSlots)}))
	if lease {
		opts = append(opts, gqs.WithLease(0))
	}
	s := &kvSystem{base: base{t: t}, freshen: lease, floor: make([]pos, keys)}
	for i := range s.floor {
		s.floor[i] = noPos
	}
	for i := 0; i < keys; i++ {
		s.keys = append(s.keys, fmt.Sprintf("k%04d", i))
	}
	if s.c, err = gqs.Open(q.F, opts...); err != nil {
		s.close()
		return nil, 0, err
	}
	if s.kv, err = s.c.KV("bench"); err != nil {
		s.close()
		return nil, 0, err
	}
	sctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if r := <-s.kv.SetAsync(sctx, "setup", "x"); r.Err != nil {
		s.close()
		return nil, 0, fmt.Errorf("first write: %w", r.Err)
	}
	for lease && s.kv.LeaseManager(0).Metrics().LocalReads == 0 {
		if _, _, err := s.kv.SyncGet(sctx, "setup"); err != nil {
			s.close()
			return nil, 0, fmt.Errorf("first leased read: %w", err)
		}
	}
	return s, time.Since(start), nil
}

// defaultSlots is the library's default log capacity (smr.DefaultSlots).
const defaultSlots = 128

// compactionInterval is gqsload -compact's checkpoint cadence for a slot
// budget: a quarter of it, at least 16, at most the budget.
func compactionInterval(slots int) int64 {
	return int64(min(max(slots/4, 16), slots))
}

func (s *kvSystem) do(ctx context.Context, op *opIn, out *opOut) {
	key := s.keys[op.key]
	if op.kind == opWrite {
		r := <-s.kv.SetAsync(ctx, key, op.val)
		out.err, out.pos = r.Err, pos{r.Slot, r.Index}
		if r.Err == nil {
			s.mu.Lock()
			if s.floor[op.key].less(out.pos) {
				s.floor[op.key] = out.pos
			}
			s.mu.Unlock()
		}
		return
	}
	if s.freshen {
		s.mu.Lock()
		out.floor = s.floor[op.key]
		s.mu.Unlock()
	}
	var val string
	val, out.found, out.err = s.kv.SyncGet(ctx, key)
	out.got = writer(val)
}

// verify checks, over every operation of the run (warm-up included, since
// warm-up writes shape what later reads may return):
//   - acknowledged writes occupy distinct (slot, index) positions;
//   - a read never returns a value older than the newest write to its key
//     acknowledged before the read was issued (kv-read);
//   - after the run, a SyncGet of every key returns its highest-positioned
//     acknowledged write, or a write whose outcome is unresolved.
func (s *kvSystem) verify(ctx context.Context, in *inputs, res *results) *checks {
	c := newChecks()
	seen := map[pos]int{}
	last := make([]int, len(s.keys)) // op index of each key's newest acked write
	for i := range last {
		last[i] = -1
	}
	unresolved := make([]map[string]bool, len(s.keys))
	for i := range in.ops {
		op, out := &in.ops[i], &res.out[i]
		if op.kind != opWrite {
			continue
		}
		if out.err != nil {
			if unresolved[op.key] == nil {
				unresolved[op.key] = map[string]bool{}
			}
			unresolved[op.key][op.val] = true
			continue
		}
		if j, dup := seen[out.pos]; dup {
			c.fail(i, "writes %d and %d both acknowledged at slot %d index %d", j, i, out.pos.slot, out.pos.idx)
		}
		seen[out.pos] = i
		if l := last[op.key]; l < 0 || res.out[l].pos.less(out.pos) {
			last[op.key] = i
		}
	}
	for i := range in.ops {
		op, out := &in.ops[i], &res.out[i]
		if op.kind != opRead || out.err != nil || out.floor == noPos {
			continue
		}
		w := out.got
		switch {
		case !out.found:
			c.fail(i, "read %d of %s found nothing after a write at %v was acknowledged", i, s.keys[op.key], out.floor)
		case w < 0 || w >= len(in.ops) || in.ops[w].kind != opWrite || in.ops[w].key != op.key:
			c.fail(i, "read %d of %s returned a value never written to it", i, s.keys[op.key])
		case res.out[w].err == nil && res.out[w].pos.less(out.floor):
			c.fail(i, "read %d of %s returned write %d at %v after the write at %v was acknowledged", i, s.keys[op.key], w, res.out[w].pos, out.floor)
		}
	}

	// Final state, read back with bounded concurrency.
	type got struct {
		val   string
		found bool
		err   error
		lat   time.Duration
	}
	final := make([]got, len(s.keys))
	var wg sync.WaitGroup
	const readers = 16
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := r; k < len(s.keys); k += readers {
				rctx, cancel := context.WithTimeout(ctx, opTimeout)
				t0 := time.Now()
				v, ok, err := s.kv.SyncGet(rctx, s.keys[k])
				final[k] = got{v, ok, err, time.Since(t0)}
				cancel()
			}
		}()
	}
	wg.Wait()
	for k, g := range final {
		l := last[k]
		if g.err != nil {
			c.fail(l, "final read of %s: %v", s.keys[k], g.err)
			continue
		}
		c.readLat = append(c.readLat, float64(g.lat)/1e6)
		switch {
		case g.found && unresolved[k][g.val]:
		case l < 0 && !g.found:
		case l >= 0 && g.found && g.val == in.ops[l].val:
		default:
			want := "nothing"
			if l >= 0 {
				want = fmt.Sprintf("%q (slot %d index %d)", in.ops[l].val, res.out[l].pos.slot, res.out[l].pos.idx)
			}
			c.fail(l, "final read of %s returned %q (found=%v), want %s", s.keys[k], g.val, g.found, want)
		}
	}
	return c
}

func (s *kvSystem) counters() counters {
	var ct counters
	ct.failovers = s.kv.Metrics().Failovers
	for p := 0; p < s.c.N(); p++ {
		if m := s.kv.LeaseManager(gqs.Proc(p)); m != nil {
			lm := m.Metrics()
			ct.localReads += lm.LocalReads
			ct.fallbacks += lm.Fallbacks
			ct.gated += lm.GatedAppends
			ct.renewFails += lm.RenewFailures
		}
		ct.barrierRounds += s.kv.ReadBarrier(gqs.Proc(p)).Metrics().Rounds
	}
	cm := s.kv.CompactionMetrics()
	ct.checkpoints, ct.truncations, ct.peakOcc = cm.Checkpoints, cm.Truncations, cm.PeakOccupancy
	return ct
}

// --- registers ---

type version = gqs.Version

type regSystem struct {
	base
	regs []*gqs.RegisterClient

	mu    sync.Mutex
	floor []version // per register: highest acknowledged write version
}

// openReg opens the Figure-1 cluster with n registers, over loopback TCP
// or, when f1 is set, over pinned 500 µs MemNetwork hops with pattern f1
// injected as the last set-up step and every client routed to U_f. The
// returned duration runs from opening the cluster (for f1: from the
// injection) until every register completed one read.
func openReg(ctx context.Context, seed int64, traced bool, n int, f1 bool) (system, time.Duration, error) {
	q := gqs.Figure1GQS()
	start := time.Now()
	opts, t, err := openNet(seed, traced, !f1)
	if err != nil {
		return nil, 0, err
	}
	opts = append(opts, gqs.WithQuorums(q.Reads, q.Writes))
	s := &regSystem{base: base{t: t}, floor: make([]version, n)}
	if s.c, err = gqs.Open(q.F, opts...); err != nil {
		s.close()
		return nil, 0, err
	}
	for i := 0; i < n; i++ {
		rc, err := s.c.Register(fmt.Sprintf("r%02d", i))
		if err != nil {
			s.close()
			return nil, 0, err
		}
		s.regs = append(s.regs, rc)
	}
	sctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := s.readAll(sctx); err != nil {
		s.close()
		return nil, 0, err
	}
	if f1 {
		pat := q.F.Patterns[0]
		for _, rc := range s.regs {
			rc.SetPolicy(gqs.HealthyUf())
		}
		if t != nil {
			t.setPattern(pat)
		}
		start = time.Now()
		if err := s.c.InjectPattern(pat); err != nil {
			s.close()
			return nil, 0, err
		}
		if err := s.readAll(sctx); err != nil {
			s.close()
			return nil, 0, fmt.Errorf("after injecting f1: %w", err)
		}
	}
	return s, time.Since(start), nil
}

// readAll completes one read on every register, concurrently.
func (s *regSystem) readAll(ctx context.Context) error {
	errs := make([]error, len(s.regs))
	var wg sync.WaitGroup
	for i, rc := range s.regs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, errs[i] = rc.Read(ctx)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (s *regSystem) do(ctx context.Context, op *opIn, out *opOut) {
	rc := s.regs[op.key]
	if op.kind == opWrite {
		out.ver, out.err = rc.Write(ctx, op.val)
		if out.err == nil {
			s.mu.Lock()
			if s.floor[op.key].Less(out.ver) {
				s.floor[op.key] = out.ver
			}
			s.mu.Unlock()
		}
		return
	}
	s.mu.Lock()
	out.floorVer = s.floor[op.key]
	s.mu.Unlock()
	var val string
	val, out.ver, out.err = rc.Read(ctx)
	out.got = writer(val)
}

// verify checks that acknowledged writes to one register carry distinct
// versions (Figure 4 picks a unique higher version per write), that every
// read returns a version at least that of every write acknowledged before
// the read was issued, and that a read returning an acknowledged write's
// version returns that write's value. Errors are failures in their own
// right: on reg-f1 every operation runs at U_f, where the paper proves the
// register wait-free.
func (s *regSystem) verify(_ context.Context, in *inputs, res *results) *checks {
	c := newChecks()
	type key struct {
		reg int
		ver version
	}
	written := map[key]int{}
	for i := range in.ops {
		op, out := &in.ops[i], &res.out[i]
		if op.kind != opWrite || out.err != nil {
			continue
		}
		k := key{op.key, out.ver}
		if j, dup := written[k]; dup {
			c.fail(i, "writes %d and %d to r%02d both acknowledged at version %v", j, i, op.key, out.ver)
			continue
		}
		written[k] = i
	}
	for i := range in.ops {
		op, out := &in.ops[i], &res.out[i]
		if op.kind != opRead || out.err != nil {
			continue
		}
		if out.ver.Less(out.floorVer) {
			c.fail(i, "read %d of r%02d returned version %v after version %v was acknowledged", i, op.key, out.ver, out.floorVer)
		}
		if w, ok := written[key{op.key, out.ver}]; ok && w != out.got {
			c.fail(i, "read %d of r%02d returned the value of write %d at version %v, which write %d was acknowledged at", i, op.key, out.got, out.ver, w)
		}
	}
	return c
}

func (s *regSystem) counters() counters {
	var ct counters
	for _, rc := range s.regs {
		ct.failovers += rc.Metrics().Failovers
		for p := 0; p < s.c.N(); p++ {
			if m, ok := rc.At(gqs.Proc(p)).Metrics(); ok {
				ct.qafGets += m.Gets
				ct.qafSets += m.Sets
			}
		}
	}
	return ct
}
