package lease

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/failure"
	"repro/internal/node"
	"repro/internal/quorum"
	"repro/internal/smr"
	"repro/internal/transport"
	"repro/internal/wire"
)

// ---------------------------------------------------------------------------
// Deterministic protocol tests: a fake Store and a fake clock drive the
// manager through grants, expiry and gate windows without a cluster, a
// wall-clock sleep, or a single nondeterministic wait.
// ---------------------------------------------------------------------------

var errInjectedPartition = errors.New("no quorum (injected partition)")

// fakeStore is an in-memory Store whose AppendMeta applies the committed
// entry synchronously through the registered observer — commit and local
// apply collapse into one step, which is the holder's own view of a grant.
type fakeStore struct {
	mu       sync.Mutex
	data     map[string]string
	slot     int64
	fail     bool
	observer func(int64, string)
	gate     func(int64)
}

func newFakeStore() *fakeStore { return &fakeStore{data: make(map[string]string)} }

func (s *fakeStore) setFail(fail bool) {
	s.mu.Lock()
	s.fail = fail
	s.mu.Unlock()
}

func (s *fakeStore) AppendMeta(_ context.Context, meta string) (int64, error) {
	s.mu.Lock()
	if s.fail {
		s.mu.Unlock()
		return 0, errInjectedPartition
	}
	s.slot++
	slot := s.slot
	obs := s.observer
	s.mu.Unlock()
	if obs != nil {
		obs(slot, meta)
	}
	return slot, nil
}

func (s *fakeStore) GetIf(_ context.Context, key string, ok func() bool) (string, bool, bool, error) {
	if !ok() {
		return "", false, false, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	v, found := s.data[key]
	return v, found, true, nil
}

func (s *fakeStore) GetManyIf(_ context.Context, keys []string, ok func() bool) (map[string]string, bool, error) {
	if !ok() {
		return nil, false, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]string, len(keys))
	for _, k := range keys {
		if v, found := s.data[k]; found {
			out[k] = v
		}
	}
	return out, true, nil
}

func (s *fakeStore) WaitApplied(context.Context, int64) error { return nil }

func (s *fakeStore) SetMetaObserver(fn func(int64, string)) {
	s.mu.Lock()
	s.observer = fn
	s.mu.Unlock()
}

func (s *fakeStore) SetGate(gate func(int64)) {
	s.mu.Lock()
	s.gate = gate
	s.mu.Unlock()
}

// fakeRig is one manager over a fake store and fake clock. Two real nodes
// back the wire topics so asks/acks exercise the production handlers; the
// peer node has no manager, so a non-holder rig's asks vanish exactly like
// asks into a partition.
type fakeRig struct {
	fc      *clock.Fake
	fs      *fakeStore
	mgr     *Manager
	renewed chan error
}

const (
	rigDur   = 10 * time.Second
	rigSkew  = 1 * time.Second
	rigRenew = 3 * time.Second
)

func newFakeRig(t *testing.T, self, holder failure.Proc) *fakeRig {
	t.Helper()
	r := &fakeRig{
		fc:      clock.NewFake(),
		fs:      newFakeStore(),
		renewed: make(chan error, 64),
	}
	net := transport.NewMem(2)
	nodes := []*node.Node{node.New(0, net), node.New(1, net)}
	r.mgr = NewManager(nodes[self], r.fs, Options{
		Holder:   holder,
		Duration: rigDur,
		Skew:     rigSkew,
		Renew:    rigRenew,
		Clock:    r.fc,
		onRenew:  func(err error) { r.renewed <- err },
	})
	t.Cleanup(func() {
		r.mgr.Stop()
		for _, n := range nodes {
			n.Stop()
		}
		net.Close()
	})
	return r
}

// grant delivers a committed grant entry to the rig's manager as the KV
// apply path would, naming the given holder.
func (r *fakeRig) grant(t *testing.T, slot int64, holder failure.Proc) {
	t.Helper()
	entry := grantEntry{Holder: int(holder), Seq: uint64(slot), Dur: int64(rigDur)}
	r.fs.mu.Lock()
	obs := r.fs.observer
	r.fs.mu.Unlock()
	obs(slot, entry.encode())
}

// TestLeaseExpiryUnderPartition forces lease loss with no wall clock: the
// holder's renewals start failing (injected partition), validity lapses
// Duration-Skew after the last successful grant, and a later heal renews
// the lease. Every step is driven by advancing the fake clock.
func TestLeaseExpiryUnderPartition(t *testing.T) {
	r := newFakeRig(t, 0, 0)

	// The initial grant commits on construction.
	if err := <-r.renewed; err != nil {
		t.Fatalf("initial grant: %v", err)
	}
	if !r.mgr.Holding() {
		t.Fatal("holder not Holding after a successful grant")
	}

	// Partition: every further renewal fails. Failed attempts retry at
	// Renew/2, so stepping Renew then Renew/2 per attempt walks fake time
	// past the validity deadline (t0 + Duration - Skew = 9s) without ever
	// recommitting.
	r.fs.setFail(true)
	r.fc.BlockUntil(1) // renew loop parked on its timer
	r.fc.Advance(rigRenew)
	if err := <-r.renewed; err == nil {
		t.Fatal("renewal across the partition unexpectedly committed")
	}
	for i := 0; i < 5; i++ { // 3s + 5*1.5s = 10.5s > 9s
		r.fc.BlockUntil(1)
		r.fc.Advance(rigRenew / 2)
		if err := <-r.renewed; err == nil {
			t.Fatalf("renewal %d across the partition unexpectedly committed", i+2)
		}
	}

	if r.mgr.Holding() {
		t.Fatal("lease still valid after the validity window lapsed")
	}
	if _, _, served, err := r.mgr.Read(context.Background(), "k"); served || err != nil {
		t.Fatalf("partitioned ex-holder Read served=%v err=%v, want fallback", served, err)
	}
	if m := r.mgr.Metrics(); m.RenewFailures < 6 || m.Grants != 1 {
		t.Fatalf("metrics = %+v, want 1 grant and >=6 renew failures", m)
	}

	// Heal: the next retry recommits and Holding returns.
	r.fs.setFail(false)
	r.fc.BlockUntil(1)
	r.fc.Advance(rigRenew / 2)
	if err := <-r.renewed; err != nil {
		t.Fatalf("renewal after heal: %v", err)
	}
	if !r.mgr.Holding() {
		t.Fatal("lease not re-established after the partition healed")
	}
}

// TestSkewWindowHolderSide pins the holder's conservative serve window:
// validity runs exactly [t0, t0+Duration-Skew) measured from the grant
// TestHolderServesOnApplyingItsGrant: the holder holds from the moment it
// applies its newest grant, even when the append reported failure (a
// renewal that timed out and committed late), with validity counted from
// that append's invocation. An older grant of its own buys nothing.
func TestHolderServesOnApplyingItsGrant(t *testing.T) {
	r := newFakeRig(t, 0, 0)
	if err := <-r.renewed; err != nil {
		t.Fatalf("initial grant: %v", err)
	}
	r.fs.setFail(true)
	r.fc.BlockUntil(1)
	r.fc.Advance(rigRenew)
	<-r.renewed
	for i := 0; i < 5; i++ { // fake time 10.5s: the first grant lapsed at 9s
		r.fc.BlockUntil(1)
		r.fc.Advance(rigRenew / 2)
		<-r.renewed
	}
	if r.mgr.Holding() {
		t.Fatal("lease still valid after the validity window lapsed")
	}
	r.mgr.mu.Lock()
	newest := r.mgr.seq
	r.mgr.mu.Unlock()
	r.grant(t, int64(newest-1), 0) // the slot doubles as the grant's seq
	if r.mgr.Holding() {
		t.Fatal("an older grant renewed the lease")
	}
	r.grant(t, int64(newest), 0)
	if !r.mgr.Holding() {
		t.Fatal("holder not Holding after applying its newest grant")
	}
	// Validity runs Duration-Skew from the invocation at 10.5s: to 19.5s.
	r.fc.BlockUntil(1)
	r.fc.Advance(rigRenew)
	<-r.renewed
	if !r.mgr.Holding() {
		t.Fatal("lease lapsed before Duration-Skew after the append's invocation")
	}
	for i := 0; i < 4; i++ { // 13.5s + 4*1.5s = 19.5s
		r.fc.BlockUntil(1)
		r.fc.Advance(rigRenew / 2)
		<-r.renewed
	}
	if r.mgr.Holding() {
		t.Fatal("lease valid past Duration-Skew after the append's invocation")
	}
}

// append's invocation, one nanosecond resolved either way.
func TestSkewWindowHolderSide(t *testing.T) {
	r := newFakeRig(t, 0, 0)
	if err := <-r.renewed; err != nil {
		t.Fatalf("initial grant: %v", err)
	}
	// Freeze renewals so nothing extends the window under the assertions.
	r.fs.setFail(true)
	r.fc.BlockUntil(1)

	r.fs.data["k"] = "v"
	r.fc.Advance(rigDur - rigSkew - time.Nanosecond)
	if !r.mgr.Holding() {
		t.Fatal("lease lapsed a nanosecond before Duration-Skew")
	}
	if v, ok, served, err := r.mgr.Read(context.Background(), "k"); !served || !ok || v != "v" || err != nil {
		t.Fatalf("leased read inside the window = %q/%v served=%v err=%v", v, ok, served, err)
	}

	r.fc.Advance(time.Nanosecond) // now == t0 + Duration - Skew exactly
	if r.mgr.Holding() {
		t.Fatal("lease still valid at Duration-Skew; the holder must stop strictly before writers ungate")
	}
	m := r.mgr.Metrics()
	if m.LocalReads != 1 {
		t.Fatalf("LocalReads = %d, want 1", m.LocalReads)
	}
}

// TestSkewWindowWriterSide pins the writer's gate window: a grant applied
// at T gates appends until T+Duration+Skew, and the gate releases either
// by the window lapsing or by a holder ack covering the slot — both
// exercised here on the fake clock.
func TestSkewWindowWriterSide(t *testing.T) {
	r := newFakeRig(t, 1, 0) // writer endpoint; the holder is elsewhere

	// A committed grant applies locally at fake-now T.
	r.grant(t, 1, 0)

	// An append completion at slot 5 gates: the ask disappears toward the
	// (absent) holder, so only the conservative window can release it.
	released := make(chan struct{})
	go func() {
		r.fs.gate(5)
		close(released)
	}()
	r.fc.BlockUntil(1) // gate parked on its window timer
	select {
	case <-released:
		t.Fatal("gated append released before the conservative window lapsed")
	default:
	}
	r.fc.Advance(rigDur + rigSkew) // now == T + Duration + Skew: window over
	<-released
	if g := r.mgr.Metrics().GatedAppends; g != 1 {
		t.Fatalf("GatedAppends = %d, want 1", g)
	}

	// Re-arm the window; this time the holder's ack releases the gate with
	// no clock movement at all.
	r.grant(t, 2, 0)
	released2 := make(chan struct{})
	go func() {
		r.fs.gate(7)
		close(released2)
	}()
	r.fc.BlockUntil(1)
	ack := wire.Int(7).AppendWire(nil)
	r.mgr.onAck(0, wire.Message{Topic: r.mgr.topicAck, Body: ack})
	<-released2
	if g := r.mgr.Metrics().GatedAppends; g != 2 {
		t.Fatalf("GatedAppends = %d, want 2", g)
	}

	// Acks from anyone but the holder must not release gates.
	r.grant(t, 3, 0)
	released3 := make(chan struct{})
	go func() {
		r.fs.gate(9)
		close(released3)
	}()
	r.fc.BlockUntil(1)
	r.mgr.onAck(1, wire.Message{Topic: r.mgr.topicAck, Body: ack})
	select {
	case <-released3:
		t.Fatal("a non-holder ack released a gated append")
	default:
	}
	r.fc.Advance(rigDur + rigSkew)
	<-released3
}

// TestGrantsFromOtherHoldersIgnored pins the single-holder rule: grant
// entries naming a process other than the configured holder neither arm
// the writer's gate window nor validate anyone's lease.
func TestGrantsFromOtherHoldersIgnored(t *testing.T) {
	r := newFakeRig(t, 1, 0)
	r.grant(t, 1, 3) // bogus holder
	released := make(chan struct{})
	go func() {
		r.fs.gate(5)
		close(released)
	}()
	<-released // no window in force: the gate must pass immediately
	if g := r.mgr.Metrics().GatedAppends; g != 0 {
		t.Fatalf("GatedAppends = %d, want 0 (no lease in force)", g)
	}
}

// ---------------------------------------------------------------------------
// Cluster integration tests: a real four-process Figure-1 deployment. The
// lease windows here ride the real clock, but every wait is event-driven
// (renewal hooks, completion channels) — no sleep-and-poll.
// ---------------------------------------------------------------------------

// leaseCluster is the four-process Figure-1 KV deployment with one lease
// manager per process, mirroring the smr test scaffolding.
type leaseCluster struct {
	net     *transport.MemNetwork
	nodes   []*node.Node
	kvs     []*smr.KV
	mgrs    []*Manager
	renewed chan error // holder renewal outcomes
}

func (c *leaseCluster) stop() {
	for _, m := range c.mgrs {
		m.Stop()
	}
	for _, kv := range c.kvs {
		kv.Stop()
	}
	for _, n := range c.nodes {
		n.Stop()
	}
	c.net.Close()
}

func newLeaseCluster(t *testing.T, holder failure.Proc, dur time.Duration) *leaseCluster {
	t.Helper()
	qs := quorum.Figure1()
	c := &leaseCluster{
		net: transport.NewMem(4,
			transport.WithDelay(transport.UniformDelay{Min: 10 * time.Microsecond, Max: 300 * time.Microsecond}),
			transport.WithSeed(63)),
		renewed: make(chan error, 256),
	}
	for i := 0; i < 4; i++ {
		nd := node.New(failure.Proc(i), c.net)
		kv := smr.NewKV(nd, smr.Options{
			Slots: 64, Reads: qs.Reads, Writes: qs.Writes, ViewC: 15 * time.Millisecond,
		})
		opts := Options{Holder: holder, Duration: dur}
		if failure.Proc(i) == holder {
			opts.onRenew = func(err error) {
				select {
				case c.renewed <- err:
				default: // a full buffer only costs observability
				}
			}
		}
		c.nodes = append(c.nodes, nd)
		c.kvs = append(c.kvs, kv)
		c.mgrs = append(c.mgrs, NewManager(nd, kv, opts))
	}
	t.Cleanup(c.stop)
	return c
}

// waitGranted blocks until the holder reports a successful renewal (the
// fail-safe timeout only bounds a broken test; it synchronizes nothing).
func (c *leaseCluster) waitGranted(t *testing.T) {
	t.Helper()
	timeout := time.After(30 * time.Second)
	for {
		select {
		case err := <-c.renewed:
			if err == nil {
				return
			}
		case <-timeout:
			t.Fatal("no successful lease grant within 30s")
		}
	}
}

func ctxSec(t *testing.T, s int) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(s)*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestHoldingLifecycle(t *testing.T) {
	c := newLeaseCluster(t, 0, 500*time.Millisecond)
	ctx := ctxSec(t, 60)

	c.waitGranted(t)
	if !c.mgrs[0].Holding() {
		// A grant committed but its window already lapsed: only plausible
		// under extreme scheduler starvation, and not this test's subject.
		t.Skip("lease lapsed between grant and check")
	}
	if c.mgrs[1].Holding() {
		t.Fatal("non-holder reports Holding")
	}
	if _, err := c.kvs[1].Set(ctx, "k", "v"); err != nil {
		t.Fatalf("set: %v", err)
	}
	// The holder serves locally; everyone else must fall back.
	if v, ok, served, err := c.mgrs[0].Read(ctx, "k"); !served || err != nil || !ok || v != "v" {
		t.Fatalf("holder Read = %q/%v served=%v err=%v", v, ok, served, err)
	}
	if _, _, served, err := c.mgrs[1].Read(ctx, "k"); served || err != nil {
		t.Fatalf("non-holder Read served=%v err=%v, want fallback", served, err)
	}
	m := c.mgrs[0].Metrics()
	if m.Grants == 0 || m.LocalReads == 0 {
		t.Fatalf("holder metrics = %+v, want grants and local reads", m)
	}
}

// TestLeasedReadObservesCompletedWrite is the end-to-end gating guarantee: a
// Set completed anywhere is visible to an immediately following leased read
// at the holder, with no barrier in between.
func TestLeasedReadObservesCompletedWrite(t *testing.T) {
	c := newLeaseCluster(t, 0, time.Second)
	ctx := ctxSec(t, 60)

	c.waitGranted(t)
	for i, want := range []string{"one", "two", "three"} {
		if _, err := c.kvs[2].Set(ctx, "epoch", want); err != nil {
			t.Fatalf("set %d at p2: %v", i, err)
		}
		v, ok, served, err := c.mgrs[0].Read(ctx, "epoch")
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !served {
			// Lease lapsed mid-test (slow CI); the fallback contract is the
			// client's job, not this test's.
			t.Skip("lease lapsed mid-test")
		}
		if !ok || v != want {
			t.Fatalf("leased read %d = %q/%v, want %q — gated write invisible", i, v, ok, want)
		}
	}
	if g := c.mgrs[2].Metrics().GatedAppends; g == 0 {
		t.Fatal("writer never gated on the holder while the lease was in force")
	}
}

// ---------------------------------------------------------------------------
// Barrier tests: every rendezvous is a channel; the joined hook replaces
// metric polling.
// ---------------------------------------------------------------------------

// TestBarrierCoalescing pins the coalescing rule: readers arriving while a
// barrier is in flight share the NEXT commit, so 1 in-flight + N waiting
// readers cost exactly 2 commits.
func TestBarrierCoalescing(t *testing.T) {
	entered := make(chan struct{})
	gate := make(chan struct{})
	b := NewBarrier(func(ctx context.Context) error {
		entered <- struct{}{}
		<-gate
		return nil
	})
	defer b.Close()
	joins := make(chan struct{}, 16)
	b.joined = func() { joins <- struct{}{} }

	errs := make(chan error, 11)
	go func() { errs <- b.Sync(context.Background()) }()
	<-joins   // the first reader joined round 1
	<-entered // round 1 is in flight
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- b.Sync(context.Background())
		}()
	}
	// All 10 late readers must have joined the FORMING round (never the
	// in-flight one) before round 1 is allowed to complete.
	for i := 0; i < 10; i++ {
		<-joins
	}
	gate <- struct{}{} // complete round 1 (the lone first reader)
	<-entered          // round 2 in flight, carrying the 10 joiners
	gate <- struct{}{} // complete round 2
	for i := 0; i < 11; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("shared sync error: %v", err)
		}
	}
	wg.Wait()
	if m := b.Metrics(); m.Rounds != 2 || m.Readers != 11 {
		t.Fatalf("metrics = %+v, want 11 readers over exactly 2 rounds", m)
	}
}

func TestBarrierLoneReaderAndClose(t *testing.T) {
	var calls atomic.Int32
	b := NewBarrier(func(ctx context.Context) error {
		calls.Add(1)
		return nil
	})
	if err := b.Sync(context.Background()); err != nil {
		t.Fatalf("lone sync: %v", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("lone reader cost %d commits, want 1", calls.Load())
	}
	b.Close()
	if err := b.Sync(context.Background()); err != ErrBarrierClosed {
		t.Fatalf("Sync after Close = %v, want ErrBarrierClosed", err)
	}
}
