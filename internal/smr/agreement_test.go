package smr

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/failure"
	"repro/internal/node"
	"repro/internal/quorum"
	"repro/internal/transport"
)

// TestSlotAgreementUnderChurnAndF1: with views churning every few
// milliseconds and hops as long as the first views, pattern f1 injected mid-run and truncation retiring the
// window underneath, every replica decides the same value in every slot it
// decides, and applies every command once: re-sent sub-batches that commit
// twice are skipped identically everywhere, and every append that returned
// is applied at its origin exactly once.
func TestSlotAgreementUnderChurnAndF1(t *testing.T) {
	qs := quorum.Figure1()
	c := &smrCluster{net: transport.NewMem(4,
		transport.WithDelay(transport.UniformDelay{Min: 10 * time.Microsecond, Max: 3 * time.Millisecond}),
		transport.WithSeed(29))}
	defer c.stop()

	var mu sync.Mutex
	decided := make([]map[int64]string, 4) // raw decision per slot
	applied := make([]map[int64]string, 4) // value OnCommit folded per slot
	for p := 0; p < 4; p++ {
		p := p
		decided[p], applied[p] = map[int64]string{}, map[int64]string{}
		nd := node.New(failure.Proc(p), c.net)
		c.nodes = append(c.nodes, nd)
		c.logs = append(c.logs, New(nd, Options{
			Slots: 16, Reads: qs.Reads, Writes: qs.Writes,
			ViewC:      time.Millisecond,
			Batch:      BatchOptions{Window: time.Millisecond, MaxOps: 4},
			Compaction: CompactionOptions{Interval: 4, AckTimeout: 200 * time.Millisecond},
			OnCommit: func(slot int64, v string) {
				mu.Lock()
				defer mu.Unlock()
				raw, ok := c.logs[p].eng.Decision(slot)
				if !ok {
					t.Errorf("p%d folded slot %d with no decision", p, slot)
				}
				decided[p][slot], applied[p][slot] = raw, v
			},
		}))
	}
	ctx := ctxSec(t, 120)

	// appendAll appends per commands at each of procs concurrently,
	// recording the origin of every command whose append returned.
	origin := map[string]int{}
	appendAll := func(phase string, procs []int, per int) {
		var wg sync.WaitGroup
		for _, p := range procs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < per; i++ {
					cmd := fmt.Sprintf("%s-p%d-%d", phase, p, i)
					if _, err := c.logs[p].Append(ctx, cmd); err != nil {
						t.Errorf("append %s: %v", cmd, err)
						return
					}
					mu.Lock()
					origin[cmd] = p
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
	}
	// Hops up to 3 views long at the start make claims straddle view
	// changes; the full run keeps that up for ~50 views, -short for ~25.
	pre, post := 40, 60
	if testing.Short() {
		pre, post = 8, 12
	}
	appendAll("pre", []int{0, 1, 2, 3}, pre)
	c.net.ApplyPattern(qs.F.Patterns[0]) // f1: d crashes, c hears nobody; U_f1 = {a, b}
	appendAll("f1", []int{0, 1}, post)
	if t.Failed() {
		return
	}
	if m := c.logs[0].CompactionMetrics(); m.Truncations == 0 {
		t.Fatalf("truncation never ran: %+v", m)
	}

	var view int64
	c.nodes[0].Call(func() { view = c.logs[0].view })
	mu.Lock()
	defer mu.Unlock()
	dups := 0
	for s, v := range decided[0] {
		if applied[0][s] != v {
			dups++
		}
	}
	t.Logf("p0 reached view %d and folded %d slots, %d of them carrying an already-applied sub-batch; %d truncations",
		view, len(decided[0]), dups, c.logs[0].CompactionMetrics().Truncations)
	// Agreement, slot by slot, between every pair of replicas.
	for p := 0; p < 4; p++ {
		for q := p + 1; q < 4; q++ {
			for s, v := range decided[p] {
				if w, ok := decided[q][s]; ok && w != v {
					t.Fatalf("slot %d: p%d decided %q, p%d decided %q", s, p, v, q, w)
				}
				if w, ok := applied[q][s]; ok && w != applied[p][s] {
					t.Fatalf("slot %d: p%d applied %q, p%d applied %q", s, p, applied[p][s], q, w)
				}
			}
		}
	}
	// Each replica applies each command at most once.
	count := make([]map[string]int, 4)
	for p := 0; p < 4; p++ {
		count[p] = map[string]int{}
		for s, v := range applied[p] {
			cmds, err := SlotCommands(v)
			if err != nil {
				t.Fatalf("p%d slot %d: %v", p, s, err)
			}
			for _, cmd := range cmds {
				if count[p][cmd]++; count[p][cmd] > 1 {
					t.Fatalf("p%d applied %q twice", p, cmd)
				}
			}
		}
	}
	// Every completed append was applied at its origin, exactly once
	// (procs 0 and 1 stayed live and connected throughout, so neither
	// needed a snapshot-install that would skip folding slots).
	for cmd, p := range origin {
		if p > 1 {
			continue
		}
		if count[p][cmd] != 1 {
			t.Fatalf("completed %q applied %d times at its origin p%d", cmd, count[p][cmd], p)
		}
	}
}
