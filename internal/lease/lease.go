// Package lease implements the fast linearizable read paths over the
// replicated KV: time-bounded read leases served from the leaseholder's
// applied state with no per-read consensus round (Manager), and shared
// read barriers that coalesce concurrent barrier reads into one no-op
// commit (Barrier). ROADMAP item 1; the Pod paper's optimal-latency reads
// motivate the shape — freshness by promise rather than a round per read.
//
// # Lease protocol
//
// One configured process (Options.Holder) periodically commits a grant
// entry through the KV's own log (smr.KV.AppendMeta). Its lease becomes
// valid when it applies its newest grant and lasts Duration-Skew measured
// from the instant the grant's append was INVOKED — the earliest moment
// any process can learn of the grant, so the holder's validity window is
// the conservative one. Every process applies grant entries in log order
// (the KV meta observer) and, while a lease may still be in force — apply
// time plus the entry's duration PLUS Skew — gates its own append
// completions (smr.Log.SetGate) on the holder having applied the appended
// slot, via an ask/ack round with the holder.
// The asymmetry of the two windows (holder subtracts the skew bound,
// writers add it) guarantees the holder stops serving local reads strictly
// before any writer stops gating on it, for every grant. Skew also absorbs
// clock-rate drift over one lease duration; the windows are measured on
// each process's own monotonic clock, never compared across processes.
//
// # Linearizability argument
//
// A leased read runs on the caller's goroutine and returns the holder's
// applied state inside one critical section of the KV's read lock in which
// the lease is valid (smr.KV.GetIf checks validity and reads under the
// lock). The node loop holds the write lock across the apply of a whole
// slot, grant entries included, so the read sees a prefix of whole slots,
// and the holder acks a slot only once WaitApplied returns, which the loop
// releases after the slot's write lock is released. Any operation that
// completed before the read was invoked occupies some slot s and its
// completion was gated on one of: (a) the holder acknowledged its prefix
// covers s — then the read observes it, the holder's prefix is monotone; (b)
// the writer's conservative window lapsed — impossible while the holder
// still serves, by the window asymmetry; or (c) no lease was in force in the
// writer's applied prefix at s — then every grant entry sits at a slot g >
// s, and a holder serving reads has applied its grant, so its prefix covers
// g and hence s. Conversely, an operation invoked after a leased read
// returned commits at a slot above every globally decided slot, in
// particular above everything the read observed (proposals retry past
// decided slots). So leased reads serialize correctly against barrier reads
// and writes in both directions. On lease loss — partition, missed renewal —
// Holding turns false and the client read path falls back to the (shared)
// barrier: linearizability is never traded for latency, only the
// fast path is lost. The protocol is single-holder: grant entries naming a
// process other than the configured holder are ignored; handing the lease
// between processes is future work.
package lease

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/failure"
	"repro/internal/node"
	"repro/internal/wire"
)

// Defaults for Options.
const (
	// DefaultDuration is the default lease duration.
	DefaultDuration = 1 * time.Second
)

// Options configures a lease Manager. All processes of one store must
// agree on Name and Holder.
type Options struct {
	// Name scopes the manager's wire topics (asks and acks). Defaults to
	// "lease".
	Name string
	// Holder is the process serving leased local reads; its manager runs
	// the grant/renewal loop, every other manager gates appends on it
	// while a lease is in force.
	Holder failure.Proc
	// Duration is how long each committed grant is valid for, measured
	// from the grant append's invocation. Defaults to DefaultDuration.
	Duration time.Duration
	// Skew is the conservative clock bound: the holder serves until
	// Duration-Skew after a grant, writers gate until Duration+Skew after
	// applying it. Defaults to Duration/10.
	Skew time.Duration
	// Renew is the holder's interval between renewals. Defaults to
	// Duration/3, so two renewals may fail before the lease lapses.
	Renew time.Duration
	// Clock supplies every time read and timer in the protocol. Defaults
	// to the real clock; tests inject clock.NewFake to drive validity and
	// gate windows deterministically. The windows are per-process
	// monotonic intervals, so the clock is never compared across
	// processes.
	Clock clock.Clock
	// onRenew, when set (tests only), observes every holder renewal
	// attempt — nil on success — after the validity window has been
	// updated. It replaces sleep-and-poll synchronization in tests.
	onRenew func(err error)
}

func (o Options) withDefaults() Options {
	if o.Name == "" {
		o.Name = "lease"
	}
	if o.Duration <= 0 {
		o.Duration = DefaultDuration
	}
	if o.Skew <= 0 {
		o.Skew = o.Duration / 10
	}
	if o.Renew <= 0 {
		o.Renew = o.Duration / 3
	}
	o.Clock = clock.Or(o.Clock)
	return o
}

// grantEntry is the committed lease grant/renewal, riding the KV log as a
// meta entry. Dur travels with the entry so writers gate by the duration
// the holder actually committed to.
type grantEntry struct {
	Holder int
	Seq    uint64
	Dur    int64 // nanoseconds
}

// encode packs the entry's fields in order (see package wire).
func (g grantEntry) encode() string {
	b := wire.AppendVarint(nil, int64(g.Holder))
	return string(wire.AppendVarint(wire.AppendUvarint(b, g.Seq), g.Dur))
}

// decodeGrant unpacks a meta entry written by grantEntry.encode.
func decodeGrant(meta string) (grantEntry, error) {
	r := wire.NewReader(meta)
	g := grantEntry{Holder: r.Int(), Seq: r.Uvarint(), Dur: r.Varint()}
	return g, r.Done()
}

// Wire bodies: a writer's visibility ask is a wire.Int naming the slot
// the holder's applied state must cover, and the holder's ack a wire.Int
// naming the slot it covers.

// Metrics is a point-in-time snapshot of one manager's counters.
type Metrics struct {
	// Grants counts grant/renewal entries this process committed (holder
	// side only).
	Grants uint64
	// RenewFailures counts grant appends that errored (holder side only);
	// enough of them in a row lapse the lease.
	RenewFailures uint64
	// LocalReads counts reads served from the lease fast path.
	LocalReads uint64
	// Fallbacks counts fast-path attempts that had to fall back to the
	// barrier path (no valid lease at the read's linearization point).
	Fallbacks uint64
	// GatedAppends counts append completions that waited for a holder ack.
	GatedAppends uint64
}

// Store is the slice of the replicated KV the lease protocol rides on:
// committing grant entries, lease-conditioned local reads, and the two
// hooks (meta observer, append gate) the manager claims. *smr.KV is the
// production implementation; tests substitute an in-memory fake to drive
// the protocol without a cluster.
type Store interface {
	// AppendMeta commits a meta entry through the log and returns its slot.
	AppendMeta(ctx context.Context, meta string) (int64, error)
	// GetIf reads key from the applied state iff ok() holds at the lookup's
	// linearization point, checked atomically with the read with respect to
	// apply; served=false means ok failed and no read happened. ok may be
	// evaluated under the store's read lock and must not call back into it.
	GetIf(ctx context.Context, key string, ok func() bool) (val string, found, served bool, err error)
	// GetManyIf is GetIf over several keys in one step.
	GetManyIf(ctx context.Context, keys []string, ok func() bool) (m map[string]string, served bool, err error)
	// WaitApplied blocks until the applied state covers slot.
	WaitApplied(ctx context.Context, slot int64) error
	// SetMetaObserver installs the commit-order meta callback.
	SetMetaObserver(fn func(slot int64, meta string))
	// SetGate installs the append-completion gate.
	SetGate(gate func(slot int64))
}

// Manager is one process's endpoint of the lease protocol. Create one per
// process over the process's node and KV endpoint; the constructor installs
// the KV hooks (meta observer, append gate) and, on the holder, starts the
// renewal loop.
type Manager struct {
	n    *node.Node
	kv   Store
	opts Options
	clk  clock.Clock
	self failure.Proc

	topicAsk, topicAck string

	mu sync.Mutex
	// validUntil is the holder-side serve window (zero elsewhere).
	validUntil time.Time
	// inForceUntil is the writer-side gate window, extended every time a
	// grant entry applies locally.
	inForceUntil time.Time
	// acked is the highest holder-applied slot acknowledged to this
	// process; appends at or below it complete ungated.
	acked int64
	// askWaiters holds one broadcast channel per slot this process's
	// appends are gating on; closed (and removed) when an ack covers it.
	askWaiters map[int64]chan struct{}
	// seq numbers the holder's grants (unique for the manager's lifetime,
	// which is its log endpoint's); sentAt is when the append of grant seq
	// was invoked, where the validity it buys starts.
	seq     uint64
	sentAt  time.Time
	stopped bool

	grants, renewFails, served, fallbacks, gated atomic.Uint64

	ctx      context.Context
	cancel   context.CancelFunc
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewManager installs a lease endpoint over the process's KV store. It
// claims the KV's meta observer and append gate; install it before the
// store takes traffic, and stop it before the KV endpoint.
func NewManager(n *node.Node, kv Store, opts Options) *Manager {
	opts = opts.withDefaults()
	ctx, cancel := context.WithCancel(context.Background()) //lint:allow ctxflow manager-lifetime root; Stop cancels it before the KV endpoint goes away
	m := &Manager{
		n:          n,
		kv:         kv,
		opts:       opts,
		clk:        opts.Clock,
		self:       n.ID(),
		topicAsk:   opts.Name + "/ask",
		topicAck:   opts.Name + "/ack",
		acked:      -1,
		askWaiters: make(map[int64]chan struct{}),
		ctx:        ctx,
		cancel:     cancel,
		stop:       make(chan struct{}),
	}
	n.Handle(m.topicAsk, m.onAsk)
	n.Handle(m.topicAck, m.onAck)
	kv.SetMetaObserver(m.onMeta)
	kv.SetGate(m.gate)
	if m.self == opts.Holder {
		m.wg.Add(1)
		go m.renewLoop()
	}
	return m
}

// Holder returns the configured leaseholder process.
func (m *Manager) Holder() failure.Proc { return m.opts.Holder }

// Holding reports whether this process may serve leased local reads right
// now. Only the configured holder ever holds; validity starts when it
// applies its newest grant and lapses Duration-Skew after that grant's
// append was invoked.
func (m *Manager) Holding() bool {
	if m.self != m.opts.Holder {
		return false
	}
	return m.validNow()
}

func (m *Manager) validNow() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.clk.Now().Before(m.validUntil)
}

// Read serves key from the holder's applied state iff this process holds a
// valid lease at the read's linearization point (validity is checked in the
// same KV read-lock critical section as the lookup, on the caller's
// goroutine: no node loop hop). served=false — not the holder,
// lease lapsed, or the endpoint errored — means the caller must take the
// barrier path instead; the read was not performed.
func (m *Manager) Read(ctx context.Context, key string) (val string, found, served bool, err error) {
	if m.self != m.opts.Holder {
		return "", false, false, nil
	}
	val, found, served, err = m.kv.GetIf(ctx, key, m.validNow)
	if served && err == nil {
		m.served.Add(1)
	} else {
		m.fallbacks.Add(1)
	}
	return val, found, served, err
}

// ReadMany is Read over several keys in one critical section (one validity
// check, one atomic multi-key lookup). Missing keys are absent from the
// result.
func (m *Manager) ReadMany(ctx context.Context, keys []string) (vals map[string]string, served bool, err error) {
	if m.self != m.opts.Holder {
		return nil, false, nil
	}
	vals, served, err = m.kv.GetManyIf(ctx, keys, m.validNow)
	if served && err == nil {
		m.served.Add(uint64(len(keys)))
	} else {
		m.fallbacks.Add(uint64(len(keys)))
	}
	return vals, served, err
}

// Metrics returns a snapshot of the manager's counters.
func (m *Manager) Metrics() Metrics {
	return Metrics{
		Grants:        m.grants.Load(),
		RenewFailures: m.renewFails.Load(),
		LocalReads:    m.served.Load(),
		Fallbacks:     m.fallbacks.Load(),
		GatedAppends:  m.gated.Load(),
	}
}

// renewLoop commits the initial grant and keeps renewing until Stop; each
// grant's validity starts when it applies (onMeta). A failed renewal (no
// quorum from the holder: partition) retries at half the interval; once
// validity lapses, Holding turns false and reads fall back until a renewal
// commits again.
func (m *Manager) renewLoop() {
	defer m.wg.Done()
	for {
		t0 := m.clk.Now()
		entry := grantEntry{Holder: int(m.self), Seq: m.nextSeq(t0), Dur: int64(m.opts.Duration)}
		ctx, cancel := context.WithTimeout(m.ctx, m.opts.Duration)
		_, err := m.kv.AppendMeta(ctx, entry.encode())
		cancel()
		sleep := m.opts.Renew
		if err != nil {
			m.renewFails.Add(1)
			sleep = m.opts.Renew / 2
		} else {
			m.grants.Add(1)
		}
		if m.opts.onRenew != nil {
			m.opts.onRenew(err)
		}
		select {
		case <-m.stop:
			return
		case <-m.clk.After(sleep):
		}
	}
}

// nextSeq numbers a grant whose append is invoked at t0.
func (m *Manager) nextSeq(t0 time.Time) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.seq++
	m.sentAt = t0
	return m.seq
}

// onMeta applies a committed grant entry (node loop, commit order):
// writers extend their conservative gate window from the local apply time.
// The holder's serve window starts only here, when it applies its newest
// grant (the log applies an entry before it completes the entry's append,
// and an install replays the checkpoint's newest grant): it then knows the
// grant committed and its applied state covers the grant's slot. Validity
// runs Duration-Skew from the append's INVOCATION: no process can have
// applied the grant before then, so every writer's gate window (apply time
// + Dur + Skew) strictly outlasts it. Entries naming a process other than
// the configured holder are ignored (single-holder protocol).
func (m *Manager) onMeta(_ int64, meta string) {
	g, err := decodeGrant(meta)
	if err != nil {
		return
	}
	if failure.Proc(g.Holder) != m.opts.Holder {
		return
	}
	until := m.clk.Now().Add(time.Duration(g.Dur) + m.opts.Skew)
	m.mu.Lock()
	if until.After(m.inForceUntil) {
		m.inForceUntil = until
	}
	if m.self == m.opts.Holder && g.Seq == m.seq && !m.stopped {
		if until := m.sentAt.Add(m.opts.Duration - m.opts.Skew); until.After(m.validUntil) {
			m.validUntil = until
		}
	}
	m.mu.Unlock()
}

// gate is the append-completion gate (smr.Log.SetGate), called from append
// completion goroutines once the local decided prefix covers slot. While a
// lease may be in force it holds the completion until the holder
// acknowledges having applied the slot, or the conservative window lapses
// (bounded: renewals only extend it while the holder is live enough to
// ack). The holder's own appends pass immediately — completion already
// implies the holder applied the slot.
func (m *Manager) gate(slot int64) {
	waited := false
	for {
		m.mu.Lock()
		if m.stopped || m.self == m.opts.Holder || slot <= m.acked || !m.clk.Now().Before(m.inForceUntil) {
			m.mu.Unlock()
			if waited {
				m.gated.Add(1)
			}
			return
		}
		deadline := m.inForceUntil
		ch, ok := m.askWaiters[slot]
		if !ok {
			ch = make(chan struct{})
			m.askWaiters[slot] = ch
		}
		m.mu.Unlock()
		// (Re)send the ask each pass: the first ask may have been lost to
		// the very partition the window is riding out.
		m.n.Send(m.opts.Holder, m.topicAsk, wire.Int(slot))
		waited = true
		timer := m.clk.NewTimer(m.clk.Until(deadline))
		select {
		case <-ch:
			timer.Stop()
			m.gated.Add(1)
			return
		case <-timer.C():
			// Window may have been extended by a renewal; loop re-checks.
		case <-m.stop:
			timer.Stop()
			return
		}
	}
}

// onAsk answers a writer's visibility ask (holder side, node loop): a
// goroutine waits until the applied state covers the slot, then acks. The
// wait is off-loop; it resolves immediately when the slot is already
// covered.
func (m *Manager) onAsk(from failure.Proc, msg wire.Message) {
	var slot wire.Int
	if wire.Decode(msg, &slot) != nil {
		return
	}
	go func() {
		if m.kv.WaitApplied(m.ctx, int64(slot)) != nil {
			return
		}
		m.n.Send(from, m.topicAck, slot)
	}()
}

// onAck releases gated appends at or below the acked slot (writer side,
// node loop). Only the holder's acks count; its prefix is monotone, so the
// high-water mark never releases early.
func (m *Manager) onAck(from failure.Proc, msg wire.Message) {
	if from != m.opts.Holder {
		return
	}
	var slot wire.Int
	if wire.Decode(msg, &slot) != nil {
		return
	}
	m.mu.Lock()
	if int64(slot) > m.acked {
		m.acked = int64(slot)
	}
	for slot, ch := range m.askWaiters {
		if slot <= m.acked {
			close(ch)
			delete(m.askWaiters, slot)
		}
	}
	m.mu.Unlock()
}

// Stop lapses the lease immediately, releases gated appends and stops the
// renewal loop. Call it before stopping the KV endpoint it guards.
func (m *Manager) Stop() {
	m.stopOnce.Do(func() {
		close(m.stop)
		m.cancel()
		m.mu.Lock()
		m.stopped = true
		m.validUntil = time.Time{}
		m.inForceUntil = time.Time{}
		for slot, ch := range m.askWaiters {
			close(ch)
			delete(m.askWaiters, slot)
		}
		m.mu.Unlock()
		m.wg.Wait()
	})
}
