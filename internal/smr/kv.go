package smr

import (
	"context"
	"encoding/binary"
	"fmt"
	"strings"
	"sync"

	"repro/internal/node"
	"repro/internal/wire"
)

// kvCommand is the log entry format of the replicated KV store.
type kvCommand struct {
	// Key and Val describe a set operation. An empty Key is a no-op entry
	// (the Sync barrier, or a Meta carrier).
	Key string
	Val string
	// Meta carries an opaque control payload through the log's total order
	// (lease grants and renewals; see AppendMeta). A Meta entry mutates no
	// KV state; it is delivered in commit order to the observer installed
	// with SetMetaObserver.
	Meta string
}

// encode packs the command as its three fields, each length-prefixed (see
// package wire). The encoding is never empty, not even for the Sync no-op:
// the log rejects empty commands.
func (c kvCommand) encode() string {
	b := make([]byte, 0, 3*binary.MaxVarintLen32+len(c.Key)+len(c.Val)+len(c.Meta))
	b = wire.AppendString(wire.AppendString(wire.AppendString(b, c.Key), c.Val), c.Meta)
	return string(b)
}

// decodeKVCommand unpacks one command. Its strings are substrings of raw.
func decodeKVCommand(raw string) (kvCommand, error) {
	r := wire.NewReader(raw)
	c := kvCommand{Key: r.String(), Val: r.String(), Meta: r.String()}
	return c, r.Done()
}

// KV is a linearizable replicated key-value store built on the replicated
// log: every Set is a log append; Get serves the incrementally maintained
// applied state of the locally decided prefix. Gets are linearizable with
// respect to Sets observed at this process; a reader needing freshness
// across processes calls Sync first, which commits a no-op barrier (or uses
// the lease fast path, see internal/lease and GetIf).
//
// Only the node loop writes the applied state; reads run on the caller's
// goroutine. mu guards applied and corrupt: the loop holds it for writing
// across a whole slot (applySlot, including its meta observer call) and
// across Restore, and Get, GetIf and GetManyIf hold it for reading around
// their guard and lookup, so a read sees whole slots only. Snapshot runs
// on the loop and reads without mu: only the loop writes. Lock order: mu,
// then the lease manager's mutex, which both a leased read's guard (GetIf
// → ok → validNow) and applySlot's meta observer (onMeta) take under mu.
type KV struct {
	log *Log

	// Applied state: applySlot folds each slot in as the decided prefix
	// advances (Log.OnCommit), so a read is one map lookup instead of an
	// O(history) prefix replay with a decode per entry. cursor is the apply
	// cursor — the next slot to fold — and always equals the log's first
	// locally undecided slot. metaSlot/meta remember the newest Meta entry
	// applied, so a checkpoint can carry it (see Snapshot). cursor, onMeta,
	// metaSlot and meta are confined to the node loop.
	mu       sync.RWMutex
	applied  map[string]string
	corrupt  error
	cursor   int64
	onMeta   func(slot int64, meta string)
	metaSlot int64
	meta     string
}

// NewKV installs a replicated KV endpoint on the node. All processes of one
// store must use the same options. Options.OnCommit and Options.Snapshotter
// are owned by the KV's apply loop and must be left unset.
func NewKV(n *node.Node, opts Options) *KV {
	if opts.Name == "" {
		opts.Name = "kv"
	}
	kv := &KV{applied: make(map[string]string)}
	opts.OnCommit = kv.applySlot
	opts.Snapshotter = kv
	kv.log = New(n, opts)
	return kv
}

// applySlot folds one newly decided slot into the applied map. Runs on the
// node loop, in slot order, exactly once per slot (Log.OnCommit). A corrupt
// entry poisons the endpoint's reads (first error wins) rather than being
// skipped silently — the pre-refactor Get failed the same way.
func (kv *KV) applySlot(slot int64, v string) {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	kv.cursor = slot + 1
	cmds, err := SlotCommands(v)
	if err != nil {
		if kv.corrupt == nil {
			kv.corrupt = fmt.Errorf("corrupt batch in slot %d: %w", slot, err)
		}
		return
	}
	for _, raw := range cmds {
		// A command is a substring of the whole slot value: clone it, so
		// the applied map keeps each command alive, not each slot.
		cmd, err := decodeKVCommand(strings.Clone(raw))
		if err != nil {
			if kv.corrupt == nil {
				kv.corrupt = fmt.Errorf("corrupt log entry in slot %d: %w", slot, err)
			}
			continue
		}
		if cmd.Key != "" {
			kv.applied[cmd.Key] = cmd.Val
		}
		if cmd.Meta != "" {
			kv.metaSlot, kv.meta = slot, cmd.Meta
			if kv.onMeta != nil {
				kv.onMeta(slot, cmd.Meta)
			}
		}
	}
}

// Snapshot serializes the applied state for a snapshot-install at frontier
// (smr.Snapshotter). It runs on the node loop with frontier equal to the
// apply cursor, so the map is exactly the decided prefix [0, frontier) and
// the synchronous pooled encoder can read it in place. The newest Meta
// entry rides along: a process restored from this checkpoint replays it,
// so control state carried through the log's total order — a lease grant
// gating writers — survives compaction (see Restore).
func (kv *KV) Snapshot(frontier int64) (string, error) {
	if kv.corrupt != nil {
		return "", fmt.Errorf("refusing to checkpoint corrupt state: %w", kv.corrupt)
	}
	if frontier != kv.cursor {
		return "", fmt.Errorf("checkpoint frontier %d is not the apply cursor %d", frontier, kv.cursor)
	}
	return wire.EncodeCheckpoint(wire.Checkpoint{
		Frontier: frontier,
		State:    kv.applied,
		MetaSlot: kv.metaSlot,
		Meta:     kv.meta,
	})
}

// Restore replaces the applied state with an installed checkpoint
// (smr.Snapshotter; runs on the node loop and, like applySlot, holds mu for
// writing throughout). The checkpoint's newest Meta entry is replayed
// through the meta observer: the lease manager's grants travel as Meta
// entries, and replaying the latest one re-establishes the writer gate an
// installed process would otherwise miss — a replay at a later apply time
// only lengthens the gate, which is the conservative direction for the lease
// freshness argument.
func (kv *KV) Restore(state string, frontier int64) error {
	c, err := wire.DecodeCheckpoint(state)
	if err != nil {
		return fmt.Errorf("restore checkpoint: %w", err)
	}
	if c.Frontier != frontier {
		return fmt.Errorf("restore checkpoint: frontier %d does not match install frontier %d", c.Frontier, frontier)
	}
	kv.mu.Lock()
	defer kv.mu.Unlock()
	kv.applied = c.State
	if kv.applied == nil {
		kv.applied = make(map[string]string)
	}
	kv.cursor = frontier
	kv.metaSlot, kv.meta = c.MetaSlot, c.Meta
	if c.Meta != "" && kv.onMeta != nil {
		kv.onMeta(c.MetaSlot, c.Meta)
	}
	return nil
}

// Set commits key=val and returns the log slot it occupies. The slot may be
// shared with other commands of the same group commit.
func (kv *KV) Set(ctx context.Context, key, val string) (int64, error) {
	return kv.log.Append(ctx, kvCommand{Key: key, Val: val}.encode())
}

// SetResult is the completion of an asynchronous Set: the slot the write's
// batch occupies, its index within the batch, and any error. It is the
// log-level AppendResult — the alias keeps SetAsync adapter-free (the
// channel the caller reads is the batcher's own completion channel, no
// per-write relay goroutine on the hot path).
type SetResult = AppendResult

// SetAsync submits key=val and returns a channel receiving its completion,
// letting one client keep several writes in flight so consecutive group
// commits pipeline instead of serializing on each decision. The channel is
// buffered; abandoning it leaks nothing. A ctx already done at the call
// submits nothing: the channel holds ctx.Err() and the write never
// commits. A cancel after the call does not withdraw the write — a
// submitted write will be proposed and may commit regardless (see
// Log.AppendAsync); use the synchronous Set when a write canceled in
// flight must be safely retriable.
func (kv *KV) SetAsync(ctx context.Context, key, val string) <-chan SetResult {
	return kv.log.AppendAsync(ctx, kvCommand{Key: key, Val: val}.encode())
}

// KVPair is one key=value write of a SetMany.
type KVPair struct {
	Key, Val string
}

// SetMany commits every pair, coalescing them into as few group commits as
// the log's batch configuration allows (one, when they fit a single batch),
// and returns the slot of each pair, aligned with the input order. The pairs
// are CONCURRENT writes: pairs sharing one group commit preserve input
// order within their slot, but pairs split across group commits may commit
// in either order — exactly like concurrent Sets. Callers needing a total order across same-key
// writes issue sequential Sets (a Set started after another completed
// always commits above it). On error the committed pairs keep their slots
// and failed pairs report slot -1; the first error is returned.
func (kv *KV) SetMany(ctx context.Context, pairs []KVPair) ([]int64, error) {
	chans := make([]<-chan SetResult, len(pairs))
	for i, p := range pairs {
		chans[i] = kv.SetAsync(ctx, p.Key, p.Val)
	}
	slots := make([]int64, len(pairs))
	var firstErr error
	for i, ch := range chans {
		res := <-ch
		slots[i] = res.Slot
		if res.Err != nil {
			slots[i] = -1
			if firstErr == nil {
				firstErr = res.Err
			}
		}
	}
	return slots, firstErr
}

// Get returns the value of key in the decided prefix at this process, and
// whether it was present. It is one lookup in the incrementally applied
// state (see applySlot), not a prefix replay, and runs on the caller's
// goroutine: it never waits for the node loop. A done ctx fails the read
// with ctx.Err(), a stopped store with ErrStopped.
func (kv *KV) Get(ctx context.Context, key string) (string, bool, error) {
	val, found, _, err := kv.GetIf(ctx, key, func() bool { return true })
	return val, found, err
}

// GetIf is Get guarded by a predicate evaluated in the same read-lock
// critical section as the lookup: served reports whether ok() held and the
// read was performed. It is the leased-read hook — the lease manager passes
// its validity check, and since applySlot holds the write lock for a whole
// slot, lease validity and the read are decided atomically with respect to
// apply at the read's linearization point (a lease that expires between
// check and lookup cannot serve a stale value). ok runs under the read lock
// and must not call back into the KV.
func (kv *KV) GetIf(ctx context.Context, key string, ok func() bool) (val string, found, served bool, err error) {
	if err := kv.readable(ctx); err != nil {
		return "", false, false, err
	}
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	if !ok() {
		return "", false, false, nil
	}
	if kv.corrupt != nil {
		return "", false, true, kv.corrupt
	}
	val, found = kv.applied[key]
	return val, found, true, nil
}

// GetManyIf is GetIf over several keys in one critical section: one guard
// check, one atomic multi-key lookup. Missing keys are absent from the
// result.
func (kv *KV) GetManyIf(ctx context.Context, keys []string, ok func() bool) (map[string]string, bool, error) {
	if err := kv.readable(ctx); err != nil {
		return nil, false, err
	}
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	if !ok() {
		return nil, false, nil
	}
	if kv.corrupt != nil {
		return nil, true, kv.corrupt
	}
	m := make(map[string]string, len(keys))
	for _, k := range keys {
		if v, found := kv.applied[k]; found {
			m[k] = v
		}
	}
	return m, true, nil
}

// readable is the precondition every read checks before it serves: the
// caller's ctx is live and the store is not stopped.
func (kv *KV) readable(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if kv.log.closed.Load() {
		return ErrStopped
	}
	return nil
}

// Sync commits a barrier no-op: after it returns, this process's decided
// prefix includes every Set that completed before Sync was invoked, making a
// following Get linearizable.
func (kv *KV) Sync(ctx context.Context) error {
	_, err := kv.log.Append(ctx, kvCommand{}.encode())
	return err
}

// AppendMeta commits an opaque control entry carrying meta through the
// log's total order and returns its slot. The entry mutates no KV state;
// every process delivers it, in commit order, to the observer installed
// with SetMetaObserver. The lease manager commits grants and renewals this
// way, so lease state transitions are ordered against the writes they
// guard by the log itself.
func (kv *KV) AppendMeta(ctx context.Context, meta string) (int64, error) {
	return kv.log.Append(ctx, kvCommand{Meta: meta}.encode())
}

// SetMetaObserver installs the observer for Meta entries (AppendMeta). It
// runs on the node loop as the decided prefix advances, in commit order,
// under the applied state's write lock, so it must not call back into the
// KV; install it before the store takes traffic. Nil removes the observer.
func (kv *KV) SetMetaObserver(fn func(slot int64, meta string)) {
	kv.log.n.Call(func() { kv.onMeta = fn }) //lint:allow ctxflow install-time hook, one bounded loop hop before the store takes traffic
}

// SetGate installs the append-completion gate on the underlying log (see
// Log.SetGate): every Set, SetAsync, SetMany, Sync and AppendMeta
// completion runs the gate after the local decided prefix covers its slot.
func (kv *KV) SetGate(gate func(slot int64)) { kv.log.SetGate(gate) }

// WaitApplied blocks until this process's applied state covers slot — i.e.
// a Get here observes every command up to and including it — the context is
// done, or the endpoint stops. The lease manager's holder side answers
// writers' visibility asks with it.
func (kv *KV) WaitApplied(ctx context.Context, slot int64) error {
	return kv.log.WaitPrefix(ctx, slot)
}

// Stop releases the underlying log.
func (kv *KV) Stop() { kv.log.Stop() }
