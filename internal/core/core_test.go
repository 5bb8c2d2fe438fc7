package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/failure"
	"repro/internal/lattice"
	"repro/internal/lincheck"
	"repro/internal/quorum"
	"repro/internal/smr"
	"repro/internal/transport"
)

// fastOpts keeps clusters light enough for the 1-CPU race runner: a 1ms
// tick saturates the instrumented JSON path when many objects coexist; 4ms
// keeps the load sane everywhere.
func fastOpts(extra ...Option) []Option {
	opts := []Option{
		WithMem(transport.WithSeed(9), transport.WithDelay(transport.UniformDelay{
			Min: 5 * time.Microsecond, Max: 100 * time.Microsecond,
		})),
		WithTick(4 * time.Millisecond),
		WithViewC(10 * time.Millisecond),
		WithSlots(8),
	}
	return append(opts, extra...)
}

func openFigure1(t *testing.T, extra ...Option) *Cluster {
	t.Helper()
	qs := quorum.Figure1()
	opts := append(fastOpts(), WithQuorums(qs.Reads, qs.Writes))
	opts = append(opts, extra...)
	c, err := Open(failure.Figure1(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func ctxSec(t *testing.T, s int) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(s)*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestOpenDerivesQuorums(t *testing.T) {
	c, err := Open(failure.Figure1(), fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.QS.Validate(); err != nil {
		t.Fatalf("derived quorum system invalid: %v", err)
	}
	if c.N() != 4 {
		t.Fatalf("N = %d", c.N())
	}
}

func TestOpenRejectsImpossibleSystem(t *testing.T) {
	_, err := Open(failure.Threshold(3, 2), fastOpts()...)
	if !errors.Is(err, ErrNoGQS) {
		t.Fatalf("err = %v, want ErrNoGQS", err)
	}
}

func TestOpenRejectsInvalidExplicitQuorums(t *testing.T) {
	qs := quorum.Figure1()
	// A single read/write quorum breaks availability for other patterns.
	_, err := Open(failure.Figure1(), append(fastOpts(), WithQuorums(qs.Reads[:1], qs.Writes[:1]))...)
	if err == nil {
		t.Fatal("invalid explicit quorums accepted")
	}
}

func TestOpenRejectsInvalidFailProne(t *testing.T) {
	bad := failure.NewSystem(3, failure.NewPattern(3, []failure.Proc{0}, []failure.Channel{{From: 0, To: 1}}))
	if _, err := Open(bad, fastOpts()...); err == nil {
		t.Fatal("invalid fail-prone system accepted")
	}
}

func TestOpenRejectsBadTCPAddressCount(t *testing.T) {
	_, err := Open(failure.Figure1(), WithTCP("127.0.0.1:0"))
	if err == nil || !strings.Contains(err.Error(), "addresses") {
		t.Fatalf("err = %v, want address-count error", err)
	}
}

// TestClusterProvisioningIdempotentConcurrent is the double-provision race
// the old Deployment had: two goroutines provisioning the same name must get
// the same client (run with -race).
func TestClusterProvisioningIdempotentConcurrent(t *testing.T) {
	c := openFigure1(t)
	const workers = 8
	regs := make([]*RegisterClient, workers)
	kvs := make([]*KVClient, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := c.Register("shared")
			if err != nil {
				t.Errorf("Register: %v", err)
				return
			}
			k, err := c.KV("shared")
			if err != nil {
				t.Errorf("KV: %v", err)
				return
			}
			regs[i], kvs[i] = r, k
		}(i)
	}
	wg.Wait()
	for i := 1; i < workers; i++ {
		if regs[i] != regs[0] {
			t.Fatalf("worker %d got a distinct register client", i)
		}
		if kvs[i] != kvs[0] {
			t.Fatalf("worker %d got a distinct kv client", i)
		}
	}
	// Same name, different kinds: distinct objects.
	if got := len(c.Objects()); got != 2 {
		t.Fatalf("objects = %d, want 2", got)
	}
}

// TestClusterHealthyUfRouting injects the Figure-1 pattern f1 and checks the
// acceptance property: a HealthyUf-routed client keeps completing operations
// (via U_f members only), while a client pinned outside U_f fails within its
// own budget.
func TestClusterHealthyUfRouting(t *testing.T) {
	c := openFigure1(t)
	f1 := c.QS.F.Patterns[0]
	if err := c.InjectPattern(f1); err != nil {
		t.Fatal(err)
	}
	if got := c.Healthy().String(); got != "{0, 1}" {
		t.Fatalf("Healthy = %s, want U_f1 = {0, 1}", got)
	}
	if p, ok := c.Pattern(); !ok || p.Name != f1.Name {
		t.Fatalf("Pattern = %v/%v", p, ok)
	}

	reg, err := c.Register("routed")
	if err != nil {
		t.Fatal(err)
	}
	reg.SetPolicy(HealthyUf())
	ctx := ctxSec(t, 60)
	const ops = 4
	for i := 0; i < ops; i++ {
		if _, err := reg.Write(ctx, "v"); err != nil {
			t.Fatalf("write %d under f1: %v", i, err)
		}
		if got, _, err := reg.Read(ctx); err != nil || got != "v" {
			t.Fatalf("read %d under f1: %q, %v", i, got, err)
		}
	}
	m := reg.Metrics()
	if m.Ops != 2*ops || m.Successes != 2*ops || m.Failures != 0 {
		t.Fatalf("metrics = %+v, want %d clean successes", m, 2*ops)
	}
	if m.MeanLatency <= 0 {
		t.Fatalf("mean latency not recorded: %+v", m)
	}

	// Pinned outside U_f1: process d (3) is crashed; the operation cannot
	// complete and must fail within the caller's budget instead of blocking.
	reg.SetPolicy(Fixed(3))
	shortCtx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	if _, err := reg.Write(shortCtx, "x"); err == nil {
		t.Fatal("write pinned to a crashed process succeeded")
	}
	if got := reg.Metrics().Failures; got != 1 {
		t.Fatalf("failures = %d, want 1", got)
	}
}

// TestClusterRoundRobinFailover checks that failover is real: with a
// deadline set, a RoundRobin client whose first candidate is a stalled
// process (crashed, or outside U_f) moves on and completes the operation at
// a healthy one instead of burning the whole budget on the first attempt.
func TestClusterRoundRobinFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("stalled-candidate attempts consume their deadline share")
	}
	c := openFigure1(t)
	if err := c.InjectPattern(c.QS.F.Patterns[0]); err != nil {
		t.Fatal(err)
	}
	reg, err := c.Register("failover")
	if err != nil {
		t.Fatal(err)
	}
	// Default RoundRobin: ops 3 and 4 start at processes 2 (no ingress under
	// f1) and 3 (crashed) and must fail over around the ring.
	for i := 0; i < 4; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 8*time.Second)
		_, err := reg.Write(ctx, "v")
		cancel()
		if err != nil {
			t.Fatalf("write %d did not fail over: %v", i, err)
		}
	}
	m := reg.Metrics()
	if m.Successes != 4 || m.Failovers < 1 {
		t.Fatalf("metrics = %+v, want 4 successes with failovers", m)
	}
}

// TestClusterProvisionsAllSixKinds exercises every object kind through its
// typed client — the acceptance list: register, snapshot, lattice
// agreement, consensus, log, KV.
func TestClusterProvisionsAllSixKinds(t *testing.T) {
	c := openFigure1(t)
	ctx := ctxSec(t, 120)

	reg, err := c.Register("r")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Write(ctx, "rv"); err != nil {
		t.Fatal(err)
	}
	if got, _, err := reg.Read(ctx); err != nil || got != "rv" {
		t.Fatalf("register read %q, %v", got, err)
	}

	cons, err := c.Consensus("c")
	if err != nil {
		t.Fatal(err)
	}
	if v, err := cons.Propose(ctx, "p"); err != nil || v != "p" {
		t.Fatalf("consensus %q, %v", v, err)
	}

	log, err := c.Log("l")
	if err != nil {
		t.Fatal(err)
	}
	slot, err := log.Append(ctx, "cmd-0")
	if err != nil {
		t.Fatal(err)
	}
	v, err := log.Get(ctx, slot)
	if err != nil {
		t.Fatalf("log get: %v", err)
	}
	if cmds, err := smr.SlotCommands(v); err != nil || len(cmds) != 1 || cmds[0] != "cmd-0" {
		t.Fatalf("log get %q: commands %q, %v", v, cmds, err)
	}

	kv, err := c.KV("k")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := kv.Set(ctx, "key", "val"); err != nil {
		t.Fatal(err)
	}
	if err := kv.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := kv.Get(ctx, "key"); err != nil || !ok || v != "val" {
		t.Fatalf("kv get %q/%v/%v", v, ok, err)
	}
	// SyncGet observes the Set regardless of which process it routes to.
	if v, ok, err := kv.SyncGet(ctx, "key"); err != nil || !ok || v != "val" {
		t.Fatalf("kv syncget %q/%v/%v", v, ok, err)
	}

	la, err := c.LatticeAgreement("a", lattice.MaxIntLattice{})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := c.Snapshot("s")
	if err != nil {
		t.Fatal(err)
	}
	if testing.Short() {
		// Snapshot scans and lattice proposals cost several quorum rounds
		// over a backing snapshot; provisioning coverage is enough here.
		t.Log("short mode: skipping snapshot/lattice operations")
	} else {
		if out, err := la.Propose(ctx, "41"); err != nil || out != "41" {
			t.Fatalf("lattice %q, %v", out, err)
		}
		if err := snap.At(2).Update(ctx, "s2"); err != nil {
			t.Fatal(err)
		}
		view, err := snap.Scan(ctx)
		if err != nil || view[2] != "s2" {
			t.Fatalf("snapshot view %v, %v", view, err)
		}
	}

	kinds := map[string]bool{}
	for _, o := range c.Objects() {
		kinds[o.Kind()] = true
	}
	for _, k := range []string{KindRegister, KindSnapshot, KindLattice, KindConsensus, KindLog, KindKV} {
		if !kinds[k] {
			t.Fatalf("kind %s not provisioned (have %v)", k, kinds)
		}
	}
}

func TestClusterCloseIdempotent(t *testing.T) {
	c := openFigure1(t)
	reg, err := c.Register("x")
	if err != nil {
		t.Fatal(err)
	}
	// Client Close is idempotent on its own.
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Write(context.Background(), "v"); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("write on closed client: %v, want ErrClientClosed", err)
	}
	// Re-provisioning a closed name returns the same (closed) object rather
	// than recreating wire topics.
	again, err := c.Register("x")
	if err != nil {
		t.Fatal(err)
	}
	if again != reg {
		t.Fatal("re-provisioned a closed name as a new object")
	}

	// Cluster Close is idempotent and blocks further provisioning.
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Register("y"); !errors.Is(err, ErrClusterClosed) {
		t.Fatalf("provision after Close: %v, want ErrClusterClosed", err)
	}
}

func TestClusterNodeAccessor(t *testing.T) {
	c := openFigure1(t)
	if _, err := c.Node(0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Node(99); err == nil {
		t.Fatal("out-of-range node accepted")
	}
}

func TestClusterExternalNetworkNotClosed(t *testing.T) {
	net := transport.NewMem(4, transport.WithSeed(1))
	defer net.Close()
	qs := quorum.Figure1()
	c, err := Open(failure.Figure1(), WithQuorums(qs.Reads, qs.Writes), WithNetwork(net))
	if err != nil {
		t.Fatal(err)
	}
	if c.Injector() == nil {
		t.Fatal("external mem network not recognized as fault injector")
	}
	c.Close()
	// The externally supplied network must still work after Close.
	got := make(chan struct{}, 1)
	net.Register(1, func(failure.Proc, []byte) { got <- struct{}{} })
	net.Send(0, 1, []byte("still-alive"))
	select {
	case <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("externally owned network was closed by cluster Close")
	}
}

func TestRoutingPolicyCandidates(t *testing.T) {
	c := openFigure1(t)
	if got := Fixed(2).Candidates(c); len(got) != 1 || got[0] != 2 {
		t.Fatalf("Fixed(2) = %v", got)
	}
	rr := RoundRobin()
	first := rr.Candidates(c)
	second := rr.Candidates(c)
	if len(first) != 4 || len(second) != 4 {
		t.Fatalf("round robin candidate counts: %v %v", first, second)
	}
	if first[0] == second[0] {
		t.Fatalf("round robin did not advance: %v then %v", first, second)
	}
	// Before any pattern, HealthyUf behaves like round robin over everyone.
	if got := HealthyUf().Candidates(c); len(got) != 4 {
		t.Fatalf("HealthyUf (no pattern) = %v", got)
	}
	f1 := c.QS.F.Patterns[0]
	if err := c.InjectPattern(f1); err != nil {
		t.Fatal(err)
	}
	got := HealthyUf().Candidates(c)
	if len(got) != 2 {
		t.Fatalf("HealthyUf under f1 = %v, want the 2 members of U_f1", got)
	}
	for _, p := range got {
		if p != 0 && p != 1 {
			t.Fatalf("HealthyUf routed to %d outside U_f1 = {0, 1}", p)
		}
	}
}

// TestPolicyChurnUnderLoad swaps routing policies (RoundRobin <-> HealthyUf)
// concurrently with in-flight register operations and a mid-run pattern
// injection: operations must keep completing (or fail only with a routing
// error while the swap window races the injection), and no swap may corrupt
// routing state. Sized down under -short so it stays cheap on 1-CPU CI race
// runs.
func TestPolicyChurnUnderLoad(t *testing.T) {
	c := openFigure1(t)
	reg, err := c.Register("churn")
	if err != nil {
		t.Fatal(err)
	}
	ctx := ctxSec(t, 120)

	ops, swaps := 16, 200
	if testing.Short() {
		ops, swaps = 8, 50
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Swapper: flip policies as fast as possible.
	wg.Add(1)
	go func() {
		defer wg.Done()
		policies := []Policy{RoundRobin(), HealthyUf(), Fixed(0), nil}
		for i := 0; i < swaps; i++ {
			select {
			case <-stop:
				return
			default:
			}
			reg.SetPolicy(policies[i%len(policies)])
		}
	}()
	// Injector: make f1 happen mid-run, so HealthyUf swaps change the
	// candidate set while operations are in flight.
	wg.Add(1)
	go func() {
		defer wg.Done()
		f1 := quorum.Figure1().F.Patterns[0]
		if err := c.InjectPattern(f1); err != nil {
			t.Errorf("inject: %v", err)
		}
	}()

	var completed int
	for i := 0; i < ops; i++ {
		opCtx, cancel := context.WithTimeout(ctx, 3*time.Second)
		_, err := reg.Write(opCtx, "v")
		cancel()
		if err == nil {
			completed++
			continue
		}
		// After f1, Fixed(0) routes to process a (in U_f1) and HealthyUf to
		// U_f1, both fine; a failure can only be a context timeout from an
		// unlucky pre-injection route. It must not be a panic or a routing
		// corruption (out-of-range process error).
		if strings.Contains(err.Error(), "out of range") {
			t.Fatalf("op %d: routing corrupted: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	if completed == 0 {
		t.Fatal("no operation completed under policy churn")
	}
	m := reg.Metrics()
	if m.Ops == 0 || m.Successes == 0 {
		t.Fatalf("metrics lost under churn: %+v", m)
	}
}

// TestBatchedKVLincheck drives concurrent clients against a cluster with
// group-commit batching and pipelined appends enabled, then checks per-key
// linearizability of the recorded history: CheckKVHistory must hold when
// many Sets share one slot's consensus and consecutive batches' rounds
// overlap. SyncGets interleave so the check also covers the barrier's
// freshness argument under prefix holes (batch completion gates on the
// local decided prefix).
func TestBatchedKVLincheck(t *testing.T) {
	c := openFigure1(t, WithSlots(64),
		WithBatch(2*time.Millisecond, 8), WithPipeline(4))
	kv, err := c.KV("batched-lin")
	if err != nil {
		t.Fatal(err)
	}
	ctx := ctxSec(t, 120)

	keys := []string{"alpha", "beta", "gamma"}
	h := lincheck.NewHistory()
	const clients, opsPer = 4, 6
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for op := 0; op < opsPer; op++ {
				k := keys[(cl+op)%len(keys)]
				if (cl+op)%2 == 0 {
					val := fmt.Sprintf("c%d-%d", cl, op)
					id := h.BeginKV(cl, lincheck.KindWrite, k, val)
					if _, err := kv.Set(ctx, k, val); err != nil {
						h.Discard(id)
						t.Errorf("client %d set: %v", cl, err)
						return
					}
					h.End(id, "", 0, 0)
				} else {
					id := h.BeginKV(cl, lincheck.KindRead, k, "")
					v, _, err := kv.SyncGet(ctx, k)
					if err != nil {
						h.Discard(id)
						t.Errorf("client %d syncget: %v", cl, err)
						return
					}
					h.End(id, v, 0, 0)
				}
			}
		}(cl)
	}
	wg.Wait()
	if err := lincheck.CheckKVHistory(h.Ops()); err != nil {
		t.Fatalf("batched history not linearizable per key: %v", err)
	}
}

// TestLeasedKVLincheckUnderFaults is the read-linearizability-under-faults
// check of the lease read path: a read-heavy skewed mix runs first against a
// valid lease at process 3 (reads served locally at the holder, writes gated
// on it), then pattern f1 is injected — which crashes the holder outright,
// forcing lease expiry across the partition — and the mix continues from
// U_f1 = {0, 1} with every read transparently on the shared-barrier
// fallback. The combined history, spanning the lease -> fallback transition,
// must be linearizable per key (lincheck.CheckKVHistory).
func TestLeasedKVLincheckUnderFaults(t *testing.T) {
	c := openFigure1(t, WithSlots(512),
		WithLease(300*time.Millisecond), WithLeaseHolder(3))
	kv, err := c.KV("leased-lin")
	if err != nil {
		t.Fatal(err)
	}
	ctx := ctxSec(t, 120)

	lm := kv.LeaseManager(3)
	deadline := time.Now().Add(10 * time.Second)
	for !lm.Holding() {
		if !time.Now().Before(deadline) {
			t.Fatal("holder never acquired the lease")
		}
		time.Sleep(5 * time.Millisecond)
	}

	keys := []string{"alpha", "beta", "gamma"}
	// Zipf-ish skew: alpha takes most of the traffic, so concurrent clients
	// genuinely contend on one hot key.
	skew := []int{0, 0, 0, 0, 0, 0, 1, 1, 2, 0}
	h := lincheck.NewHistory()
	const clients, opsPer = 4, 10
	phase := func(base int) {
		var wg sync.WaitGroup
		for cl := 0; cl < clients; cl++ {
			wg.Add(1)
			go func(cl int) {
				defer wg.Done()
				for op := 0; op < opsPer; op++ {
					k := keys[skew[(cl*3+op)%len(skew)]]
					if op%10 == cl%10 { // ~0.9 read fraction
						val := fmt.Sprintf("c%d-%d", base+cl, op)
						id := h.BeginKV(base+cl, lincheck.KindWrite, k, val)
						if _, err := kv.Set(ctx, k, val); err != nil {
							h.Discard(id)
							t.Errorf("client %d set: %v", cl, err)
							return
						}
						h.End(id, "", 0, 0)
					} else {
						id := h.BeginKV(base+cl, lincheck.KindRead, k, "")
						v, _, err := kv.SyncGet(ctx, k)
						if err != nil {
							h.Discard(id)
							t.Errorf("client %d syncget: %v", cl, err)
							return
						}
						h.End(id, v, 0, 0)
					}
				}
			}(cl)
		}
		wg.Wait()
	}

	phase(0) // lease in force: holder serves leased local reads
	if lm.Metrics().LocalReads == 0 {
		t.Fatal("no read took the lease fast path while the lease was valid")
	}

	// f1 crashes the holder: renewals stop, the lease must lapse within one
	// duration, and reads fall back without a linearizability gap.
	if err := c.InjectPattern(c.QS.F.Patterns[0]); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(10 * time.Second)
	for lm.Holding() {
		if !time.Now().Before(deadline) {
			t.Fatal("partitioned holder never lost the lease")
		}
		time.Sleep(5 * time.Millisecond)
	}
	kv.SetPolicy(HealthyUf()) // post-fault ops stay inside U_f1

	phase(clients) // lease lapsed: every read on the shared-barrier fallback

	if err := lincheck.CheckKVHistory(h.Ops()); err != nil {
		t.Fatalf("leased+fallback history not linearizable per key: %v", err)
	}
}

// TestKVClientSetManyBatched covers the routed SetMany surface: one call
// coalesces into group commits and every pair lands.
func TestKVClientSetManyBatched(t *testing.T) {
	c := openFigure1(t, WithBatch(2*time.Millisecond, 16))
	kv, err := c.KV("many")
	if err != nil {
		t.Fatal(err)
	}
	ctx := ctxSec(t, 60)

	pairs := []smr.KVPair{{Key: "x", Val: "1"}, {Key: "y", Val: "2"}, {Key: "x", Val: "3"}}
	slots, err := kv.SetMany(ctx, pairs)
	if err != nil {
		t.Fatalf("setmany: %v", err)
	}
	if len(slots) != len(pairs) {
		t.Fatalf("got %d slots for %d pairs", len(slots), len(pairs))
	}
	v, ok, err := kv.SyncGet(ctx, "x")
	if err != nil || !ok || v != "3" {
		t.Fatalf(`syncget "x" = %q/%v/%v, want "3"`, v, ok, err)
	}
	// Async set completes and is observable after a barrier.
	res := <-kv.SetAsync(ctx, "z", "9")
	if res.Err != nil {
		t.Fatalf("setasync: %v", res.Err)
	}
	v, ok, err = kv.SyncGet(ctx, "z")
	if err != nil || !ok || v != "9" {
		t.Fatalf(`syncget "z" = %q/%v/%v, want "9"`, v, ok, err)
	}
}

// TestKVClientSetManyDefaultsGroupCommit: group commit is the only append
// path, so with no WithBatch a 64-pair SetMany still shares slots.
func TestKVClientSetManyDefaultsGroupCommit(t *testing.T) {
	c := openFigure1(t)
	kv, err := c.KV("defaults")
	if err != nil {
		t.Fatal(err)
	}
	ctx := ctxSec(t, 60)
	pairs := make([]smr.KVPair, 64)
	for i := range pairs {
		pairs[i] = smr.KVPair{Key: fmt.Sprintf("k%d", i), Val: fmt.Sprint(i)}
	}
	slots, err := kv.SetMany(ctx, pairs)
	if err != nil {
		t.Fatalf("setmany: %v", err)
	}
	distinct := map[int64]bool{}
	for _, s := range slots {
		distinct[s] = true
	}
	if len(distinct) >= len(pairs) {
		t.Fatalf("%d pairs committed into %d distinct slots, want fewer", len(pairs), len(distinct))
	}
}
