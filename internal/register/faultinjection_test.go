package register

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/failure"
	"repro/internal/lincheck"
	"repro/internal/quorum"
)

// TestLinearizableUnderMidRunFailureInjection runs a concurrent workload
// that starts failure-free and has pattern f1's failures injected one at a
// time while operations are in flight. Operations at U_f1 = {a, b} must keep
// terminating throughout, and the completed history must be linearizable.
//
// This is strictly harsher than applying the pattern up front: the paper's
// model allows channels to disconnect at any point in the execution, so the
// protocol must tolerate losing connectivity mid-operation.
func TestLinearizableUnderMidRunFailureInjection(t *testing.T) {
	bothPropagations(t, testLinearizableUnderMidRunFailureInjection)
}

func testLinearizableUnderMidRunFailureInjection(t *testing.T, propagate bool) {
	qs := quorum.Figure1()
	c := newRegClusterWith(t, propagate, 4, Options{Reads: qs.Reads, Writes: qs.Writes})
	defer c.stop()

	f1 := qs.F.Patterns[0]
	// Injection schedule: one failure every few milliseconds.
	var failures []func()
	failures = append(failures, func() { c.net.Crash(failure.D) })
	for ch := range f1.Chans {
		ch := ch
		failures = append(failures, func() { c.net.Disconnect(ch) })
	}

	h := lincheck.NewHistory()
	ctx := ctxSec(t, 120)
	var wg sync.WaitGroup

	// Injector goroutine.
	injectDone := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(injectDone)
		for _, inject := range failures {
			time.Sleep(4 * time.Millisecond)
			inject()
		}
	}()

	// Workers at U_f1 members only: their ops must always terminate.
	for _, p := range []int{0, 1} {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(p)))
			for i := 0; i < 8; i++ {
				if rng.Intn(2) == 0 {
					val := fmt.Sprintf("p%d-i%d", p, i)
					id := h.Begin(p, lincheck.KindWrite, val)
					v, err := c.regs[p].Write(ctx, val)
					if err != nil {
						t.Errorf("write at %d failed under injection: %v", p, err)
						h.Discard(id)
						return
					}
					h.End(id, "", v.Num, v.Proc)
				} else {
					id := h.Begin(p, lincheck.KindRead, "")
					out, v, err := c.regs[p].Read(ctx)
					if err != nil {
						t.Errorf("read at %d failed under injection: %v", p, err)
						h.Discard(id)
						return
					}
					h.End(id, out, v.Num, v.Proc)
				}
			}
		}(p)
	}
	wg.Wait()

	ops := h.Ops()
	if len(ops) < 10 {
		t.Fatalf("too few completed ops: %d", len(ops))
	}
	if err := lincheck.CheckVersioned(ops); err != nil {
		t.Fatalf("linearizability violated under mid-run injection: %v\n%s",
			err, lincheck.FormatOps(ops))
	}
}

// TestRandomFailureSchedules runs many short workloads, each under a random
// prefix of a random Figure-1 pattern injected at random times, checking the
// versioned linearizability of whatever completed. Ops are invoked at U_f
// members of the *full* pattern, so termination is guaranteed regardless of
// how much of the pattern has materialized.
func TestRandomFailureSchedules(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized schedules are slow")
	}
	bothPropagations(t, testRandomFailureSchedules)
}

func testRandomFailureSchedules(t *testing.T, propagate bool) {
	qs := quorum.Figure1()
	g := quorum.Network(4)
	rng := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 5; trial++ {
		pi := rng.Intn(len(qs.F.Patterns))
		f := qs.F.Patterns[pi]
		uf := qs.Uf(g, f).Elems()

		c := newRegClusterWith(t, propagate, 4, Options{Reads: qs.Reads, Writes: qs.Writes})
		h := lincheck.NewHistory()
		ctx := ctxSec(t, 60)

		// Random injection times within the first ~20ms.
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			delay := time.Duration(rng.Intn(5)) * time.Millisecond
			time.Sleep(delay)
			f.Procs.ForEach(func(p int) { c.net.Crash(failure.Proc(p)) })
			for ch := range f.Chans {
				time.Sleep(time.Duration(rng.Intn(3)) * time.Millisecond)
				c.net.Disconnect(ch)
			}
		}()

		for wi, p := range uf {
			wg.Add(1)
			go func(wi, p int) {
				defer wg.Done()
				for i := 0; i < 4; i++ {
					if (i+wi)%2 == 0 {
						val := fmt.Sprintf("t%d-p%d-%d", trial, p, i)
						id := h.Begin(p, lincheck.KindWrite, val)
						v, err := c.regs[p].Write(ctx, val)
						if err != nil {
							t.Errorf("trial %d write at %d: %v", trial, p, err)
							h.Discard(id)
							return
						}
						h.End(id, "", v.Num, v.Proc)
					} else {
						id := h.Begin(p, lincheck.KindRead, "")
						out, v, err := c.regs[p].Read(ctx)
						if err != nil {
							t.Errorf("trial %d read at %d: %v", trial, p, err)
							h.Discard(id)
							return
						}
						h.End(id, out, v.Num, v.Proc)
					}
				}
			}(wi, p)
		}
		wg.Wait()
		ops := h.Ops()
		if err := lincheck.CheckVersioned(ops); err != nil {
			c.stop()
			t.Fatalf("trial %d (pattern %s): %v\n%s", trial, f.Name, err, lincheck.FormatOps(ops))
		}
		c.stop()
	}
}

// TestOperationsAcrossPatternBoundary: operations that straddle the instant
// failures happen must either complete correctly or block — never return
// wrong data. A write races the full f1 injection; whatever the outcome, a
// subsequent read at U_f observes a consistent register.
func TestOperationsAcrossPatternBoundary(t *testing.T) {
	bothPropagations(t, testOperationsAcrossPatternBoundary)
}

func testOperationsAcrossPatternBoundary(t *testing.T, propagate bool) {
	qs := quorum.Figure1()
	for trial := 0; trial < 3; trial++ {
		c := newRegClusterWith(t, propagate, 4, Options{Reads: qs.Reads, Writes: qs.Writes})
		ctx := ctxSec(t, 60)

		done := make(chan error, 1)
		go func() {
			_, err := c.regs[0].Write(ctx, "racer")
			done <- err
		}()
		c.net.ApplyPattern(qs.F.Patterns[0])
		err := <-done
		if err != nil {
			t.Fatalf("write at U_f member failed across boundary: %v", err)
		}
		got, _, err := c.regs[1].Read(ctx)
		if err != nil {
			t.Fatalf("read after boundary: %v", err)
		}
		if got != "racer" && got != "" {
			t.Fatalf("read returned impossible value %q", got)
		}
		if got != "racer" {
			t.Fatalf("completed write not visible: read %q", got)
		}
		c.stop()
	}
}
