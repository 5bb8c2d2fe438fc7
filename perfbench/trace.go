package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"hash/maphash"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	gqs "repro"
	"repro/internal/transport"
	"repro/internal/wire"
)

// consensusKinds are the message kinds of one log slot's consensus.
var consensusKinds = map[string]bool{"1b": true, "2a": true, "2b": true, "dec": true, "idle1b": true, "decs": true}

// msgKinds lists every message kind the per-layer report names; any other
// kind counts under "other".
var msgKinds = []string{
	"1b", "2a", "2b", "dec", "idle1b", "decs", "ckpt", "snap", // smr, consensus
	"ask", "ack", // lease (ack also names the qaf propagator's ack)
	"clock_req", "clock_resp", "get_resp", "set_req", "set_resp", // qaf generalized
	"prop", "nudge", "ping", "pong", // qaf propagator
	"other",
}

// msgRec is one message copy crossing the tapped network.
type msgRec struct {
	from, to int8
	kind     uint16 // index into tapNet.kinds
	bytes    int32
	sent     int64 // ns since the run's schedule origin
	handled  int64 // handler entry, or -1 when never delivered
}

type kindInfo struct {
	name  string // the topic's last segment
	layer string // the topic's first segment
}

type pendKey struct {
	from, to int8
	h        uint64
}

// tapNet wraps the cluster's transport (gqs.WithNetwork) and records every
// message copy it carries: kind, size, send time and handler-entry time. It
// forwards fault injection so Cluster.InjectPattern keeps working.
type tapNet struct {
	inner gqs.Network
	delay time.Duration // pinned one-way delay per hop; 0 on TCP
	seed  maphash.Seed
	all   []gqs.Proc // every process, the destinations of a SendAll

	on   atomic.Bool
	base time.Time

	mu      sync.Mutex
	hops    [][]int // shortest-path hop count under the injected pattern
	msgs    []msgRec
	pending map[pendKey][]int32
	kindIdx map[string]uint16
	kinds   []kindInfo
	samples [][]byte
}

func newTap(inner gqs.Network, delay time.Duration) *tapNet {
	n := inner.N()
	t := &tapNet{inner: inner, delay: delay, seed: maphash.MakeSeed(),
		pending: map[pendKey][]int32{}, kindIdx: map[string]uint16{}}
	t.hops = make([][]int, n)
	for p := 0; p < n; p++ {
		t.all = append(t.all, gqs.Proc(p))
	}
	for u := range t.hops {
		t.hops[u] = make([]int, n)
		for v := range t.hops[u] {
			if u != v {
				t.hops[u][v] = 1
			}
		}
	}
	return t
}

// setPattern recomputes hop counts for the residual graph of f: crashed
// processes and disconnected channels are gone, as MemNetwork routes.
func (t *tapNet) setPattern(f gqs.Pattern) {
	n := t.inner.N()
	up := func(u, v int) bool {
		return !f.FaultyProc(gqs.Proc(u)) && !f.FaultyProc(gqs.Proc(v)) &&
			!f.FaultyChannel(gqs.Channel{From: gqs.Proc(u), To: gqs.Proc(v)})
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for s := 0; s < n; s++ {
		dist := make([]int, n)
		for i := range dist {
			dist[i] = -1
		}
		dist[s] = 0
		queue := []int{s}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for v := 0; v < n; v++ {
				if dist[v] < 0 && up(u, v) {
					dist[v] = dist[u] + 1
					queue = append(queue, v)
				}
			}
		}
		t.hops[s] = dist
	}
}

func (t *tapNet) start(base time.Time) {
	t.mu.Lock()
	t.base = base
	t.mu.Unlock()
	t.on.Store(true)
}

func (t *tapNet) N() int { return t.inner.N() }

func (t *tapNet) Register(p gqs.Proc, h transport.Handler) {
	t.inner.Register(p, func(from gqs.Proc, payload []byte) {
		if t.on.Load() {
			t.delivered(from, p, payload)
		}
		h(from, payload)
	})
}

func (t *tapNet) Send(from, to gqs.Proc, payload []byte) {
	if t.on.Load() {
		t.sent(from, []gqs.Proc{to}, payload)
	}
	t.inner.Send(from, to, payload)
}

func (t *tapNet) SendAll(from gqs.Proc, payload []byte) {
	if t.on.Load() {
		t.sent(from, t.all, payload)
	}
	t.inner.SendAll(from, payload)
}

func (t *tapNet) Close() { t.inner.Close() }

func (t *tapNet) Crash(p gqs.Proc)           { t.inner.(transport.FaultInjector).Crash(p) }
func (t *tapNet) Disconnect(c gqs.Channel)   { t.inner.(transport.FaultInjector).Disconnect(c) }
func (t *tapNet) ApplyPattern(f gqs.Pattern) { t.inner.(transport.FaultInjector).ApplyPattern(f) }

// sampleEvery keeps one payload in this many for the wire replay.
const sampleEvery = 8

const maxSamples = 20000

func (t *tapNet) sent(from gqs.Proc, to []gqs.Proc, payload []byte) {
	h := maphash.Bytes(t.seed, payload)
	t.mu.Lock()
	defer t.mu.Unlock()
	now := int64(time.Since(t.base))
	k := t.kindLocked(payload)
	for _, q := range to {
		i := int32(len(t.msgs))
		t.msgs = append(t.msgs, msgRec{from: int8(from), to: int8(q), kind: k, bytes: int32(len(payload)), sent: now, handled: -1})
		pk := pendKey{int8(from), int8(q), h}
		t.pending[pk] = append(t.pending[pk], i)
		if int(i)%sampleEvery == 0 && len(t.samples) < maxSamples {
			t.samples = append(t.samples, payload)
		}
	}
}

func (t *tapNet) delivered(from, to gqs.Proc, payload []byte) {
	h := maphash.Bytes(t.seed, payload)
	t.mu.Lock()
	defer t.mu.Unlock()
	pk := pendKey{int8(from), int8(to), h}
	q := t.pending[pk]
	if len(q) == 0 {
		return
	}
	t.msgs[q[0]].handled = int64(time.Since(t.base))
	if len(q) == 1 {
		delete(t.pending, pk)
	} else {
		t.pending[pk] = q[1:]
	}
}

// kindLocked classifies a payload by its topic (`{"t":"<topic>",...}`).
func (t *tapNet) kindLocked(payload []byte) uint16 {
	topic := ""
	if rest, ok := bytes.CutPrefix(payload, []byte(`{"t":"`)); ok {
		if i := bytes.IndexByte(rest, '"'); i >= 0 {
			topic = string(rest[:i])
		}
	}
	if k, ok := t.kindIdx[topic]; ok {
		return k
	}
	info := kindInfo{name: topic[strings.LastIndexByte(topic, '/')+1:]}
	if i := strings.IndexByte(topic, '/'); i >= 0 {
		info.layer = topic[:i]
	}
	k := uint16(len(t.kinds))
	t.kinds = append(t.kinds, info)
	t.kindIdx[topic] = k
	return k
}

// tcpComposite presents one TCPNetwork endpoint per process as a single
// network, dispatching each call to the sender's (or receiver's) endpoint.
type tcpComposite []*gqs.TCPNetwork

func (c tcpComposite) N() int                                   { return len(c) }
func (c tcpComposite) Register(p gqs.Proc, h transport.Handler) { c[p].Register(p, h) }
func (c tcpComposite) Send(from, to gqs.Proc, payload []byte)   { c[from].Send(from, to, payload) }
func (c tcpComposite) SendAll(from gqs.Proc, payload []byte)    { c[from].SendAll(from, payload) }
func (c tcpComposite) Close() {
	for _, ep := range c {
		ep.Close()
	}
}

// probeRec is one mailbox probe: a no-op CallCtx issued at issue and run by
// the event loop at ran (ns since the schedule origin).
type probeRec struct {
	proc       int
	issue, ran int64
}

// probeEvery is the mailbox probe cadence at each process.
const probeEvery = 5 * time.Millisecond

// tracer records the traced run: message copies through the tap, mailbox
// probes at every node during the window, and the window's boundaries.
type tracer struct {
	sys              system
	tap              *tapNet
	base             time.Time
	winStart, winEnd int64

	mu     sync.Mutex
	probes []probeRec
	stop   chan struct{}
	wg     sync.WaitGroup
}

func newTracer(sys system) *tracer { return &tracer{sys: sys, tap: sys.tap()} }

func (tr *tracer) begin(base time.Time) {
	tr.base = base
	tr.tap.start(base)
}

// window marks the window's start (probes begin) or end (probes stop).
func (tr *tracer) window(start bool) {
	now := int64(time.Since(tr.base))
	if !start {
		tr.winEnd = now
		close(tr.stop)
		tr.wg.Wait()
		return
	}
	tr.winStart = now
	tr.stop = make(chan struct{})
	c := tr.sys.cluster()
	for p := 0; p < c.N(); p++ {
		nd, err := c.Node(gqs.Proc(p))
		if err != nil {
			continue
		}
		tr.wg.Add(1)
		go func() {
			defer tr.wg.Done()
			tick := time.NewTicker(probeEvery)
			defer tick.Stop()
			for {
				select {
				case <-tr.stop:
					return
				case <-tick.C:
				}
				issue := int64(time.Since(tr.base))
				var ran atomic.Int64
				ctx, cancel := context.WithTimeout(context.Background(), time.Second)
				err := nd.CallCtx(ctx, func() { ran.Store(int64(time.Since(tr.base))) })
				cancel()
				if err == nil {
					tr.mu.Lock()
					tr.probes = append(tr.probes, probeRec{p, issue, ran.Load()})
					tr.mu.Unlock()
				}
			}
		}()
	}
}

// replay decodes the sampled payloads through wire.Unmarshal, returning
// the median ns per message over three passes and heap objects allocated
// per message. The cluster is closed by then, so the process is quiet.
func replay(samples [][]byte) (nsPerMsg, allocsPerMsg float64) {
	if len(samples) == 0 {
		return 0, 0
	}
	var passes []float64
	var allocs uint64
	for pass := 0; pass < 3; pass++ {
		a0 := heapAllocs()
		t0 := time.Now()
		for _, p := range samples {
			if _, err := wire.Unmarshal(p); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: replay: %v\n", err)
			}
		}
		passes = append(passes, float64(time.Since(t0).Nanoseconds())/float64(len(samples)))
		allocs = heapAllocs() - a0
	}
	return median(passes), float64(allocs) / float64(len(samples))
}

// layerMetrics computes the per-layer metrics of the traced run.
func (tr *tracer) layerMetrics(in *inputs, res *results, chk *checks, rep *report) map[string]metric {
	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	// core: from the per-operation spans.
	var readCall, writeCall []float64
	var ops, reads, writes, okWrites float64
	slots := map[int64]bool{}
	for i := range in.ops {
		op, out := &in.ops[i], &res.out[i]
		if !res.inWindow(op) {
			continue
		}
		ops++
		call := float64(out.done-out.issue) / 1e3 // µs
		if op.kind == opRead {
			reads++
			if out.err == nil {
				readCall = append(readCall, call)
			}
			continue
		}
		writes++
		if out.err == nil {
			okWrites++
			writeCall = append(writeCall, call/1e3)
			if _, kv := tr.sys.(*kvSystem); kv {
				slots[out.pos.slot] = true
			}
		}
	}
	if reads == 0 {
		// kv-write: the client call of the post-window verification reads.
		for _, l := range chk.readLat {
			readCall = append(readCall, l*1e3)
		}
	}
	for _, v := range [][]float64{readCall, writeCall} {
		sort.Float64s(v)
	}
	set("loadgen.late_p50_ms", rep.lateP50, "ms")
	set("loadgen.late_p99_ms", rep.lateP99, "ms")
	set("loadgen.inflight_max", float64(rep.inflightMax), "count")
	set("core.read_call_p50_us", percentile(readCall, 0.5), "us")
	set("core.read_call_p99_us", percentile(readCall, 0.99), "us")
	set("core.write_call_p50_ms", percentile(writeCall, 0.5), "ms")
	set("core.write_call_p99_ms", percentile(writeCall, 0.99), "ms")
	c0, c1 := res.ctr0, res.ctr1
	set("core.failovers", float64(c1.failovers-c0.failovers), "count")

	// lease
	local, fallback := float64(c1.localReads-c0.localReads), float64(c1.fallbacks-c0.fallbacks)
	set("lease.local_read_share", ratio(local, local+fallback), "ratio")
	set("lease.barrier_rounds_per_read", ratio(float64(c1.barrierRounds-c0.barrierRounds), reads), "count/op")
	set("lease.gated_appends_per_write", ratio(float64(c1.gated-c0.gated), writes), "count/op")
	set("lease.renew_failures", float64(c1.renewFails-c0.renewFails), "count")

	// smr
	set("smr.writes_per_slot", ratio(okWrites, float64(len(slots))), "count/slot")
	set("smr.checkpoints", float64(c1.checkpoints-c0.checkpoints), "count")
	set("smr.truncations", float64(c1.truncations-c0.truncations), "count")
	set("smr.peak_occupancy", float64(c1.peakOcc), "slots")

	// qaf
	set("qaf.gets_per_op", ratio(float64(c1.qafGets-c0.qafGets), ops), "count/op")
	set("qaf.sets_per_op", ratio(float64(c1.qafSets-c0.qafSets), ops), "count/op")

	// node: the worst process's mailbox wait.
	tr.mu.Lock()
	waits := map[int][]float64{}
	for _, p := range tr.probes {
		waits[p.proc] = append(waits[p.proc], float64(p.ran-p.issue)/1e3)
	}
	tr.mu.Unlock()
	var w50, w99 float64
	for _, w := range waits {
		sort.Float64s(w)
		w50, w99 = max(w50, percentile(w, 0.5)), max(w99, percentile(w, 0.99))
	}
	set("node.mailbox_wait_p50_us", w50, "us")
	set("node.mailbox_wait_p99_us", w99, "us")

	// transport, wire, consensus and qaf traffic: window message copies.
	t := tr.tap
	t.on.Store(false)
	t.mu.Lock()
	var msgs, bytes, dropped, consMsgs, qafMsgs float64
	var lags []float64
	perKind := map[string]float64{}
	known := map[string]bool{}
	for _, k := range msgKinds {
		known[k] = true
	}
	for _, r := range t.msgs {
		if r.sent < tr.winStart || r.sent >= tr.winEnd {
			continue
		}
		msgs++
		bytes += float64(r.bytes)
		info := t.kinds[r.kind]
		name := info.name
		if !known[name] {
			name = "other"
		}
		perKind[name]++
		if consensusKinds[info.name] && info.layer == "kv" {
			consMsgs++
		}
		if info.layer == "qaf" || info.layer == "reg" {
			qafMsgs++
		}
		if r.handled < 0 {
			dropped++
		} else if r.from != r.to {
			hops := t.hops[r.from][r.to]
			lags = append(lags, float64(r.handled-r.sent-int64(hops)*int64(t.delay))/1e3)
		}
	}
	samples := t.samples
	t.mu.Unlock()
	sort.Float64s(lags)
	set("consensus.msgs_per_slot", ratio(consMsgs, float64(len(slots))), "count/slot")
	set("qaf.msgs_per_op", ratio(qafMsgs, ops), "count/op")
	set("wire.bytes_per_msg", ratio(bytes, msgs), "B")
	ns, allocs := replay(samples)
	set("wire.unmarshal_ns_per_msg", ns, "ns")
	set("wire.unmarshal_allocs_per_msg", allocs, "count")
	set("transport.msgs_per_op", ratio(msgs, ops), "count/op")
	set("transport.bytes_per_op", ratio(bytes, ops), "B/op")
	for _, k := range msgKinds {
		set("transport.msgs_per_op."+k, ratio(perKind[k], ops), "count/op")
	}
	set("transport.deliver_lag_p50_us", percentile(lags, 0.5), "us")
	set("transport.deliver_lag_p99_us", percentile(lags, 0.99), "us")
	set("transport.dropped_share", ratio(dropped, msgs), "ratio")
	return m
}

// write dumps the run's spans and records as TSV: one line per operation
// (due → done, with the client call issue → done as its child span), per
// message copy, and per mailbox probe. Times are ns since the schedule
// origin.
func (tr *tracer) write(path string, in *inputs, res *results) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# window\t%d\t%d\n", tr.winStart, tr.winEnd)
	fmt.Fprintln(w, "# op\tid\tkind\tkey\tdue\tissue\tdone\terr")
	for i := range in.ops {
		op, out := &in.ops[i], &res.out[i]
		kind := "write"
		if op.kind == opRead {
			kind = "read"
		}
		fmt.Fprintf(w, "op\t%d\t%s\t%d\t%d\t%d\t%d\t%v\n", i, kind, op.key, int64(op.due), int64(out.issue), int64(out.done), out.err != nil)
	}
	t := tr.tap
	t.mu.Lock()
	fmt.Fprintln(w, "# msg\tfrom\tto\tkind\tbytes\tsent\thandled")
	for _, r := range t.msgs {
		k := t.kinds[r.kind]
		fmt.Fprintf(w, "msg\t%d\t%d\t%s/%s\t%d\t%d\t%d\n", r.from, r.to, k.layer, k.name, r.bytes, r.sent, r.handled)
	}
	t.mu.Unlock()
	tr.mu.Lock()
	fmt.Fprintln(w, "# probe\tproc\tissue\tran")
	for _, p := range tr.probes {
		fmt.Fprintf(w, "probe\t%d\t%d\t%d\n", p.proc, p.issue, p.ran)
	}
	tr.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
