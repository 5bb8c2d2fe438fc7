package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// opKind is an operation's kind.
type opKind uint8

const (
	opWrite opKind = iota
	opRead
)

// opTimeout bounds one operation; an operation still pending then fails.
const opTimeout = 10 * time.Second

// opIn is one generated operation: due offset from the schedule origin,
// kind, key index and (for writes) a value unique within the run.
type opIn struct {
	due  time.Duration
	kind opKind
	key  int
	val  string
}

// inputs is a run's whole schedule, derived from the seed alone.
type inputs struct {
	ops []opIn
}

// genInputs builds the fixed-rate schedule covering d: operation i is due
// at i/rate seconds, keys are uniform or Zipf(1.1) and values embed the
// seed and the operation index, so every write's value is unique.
func genInputs(s spec, seed int64, d time.Duration) *inputs {
	rng := rand.New(rand.NewSource(seed))
	var zipf *rand.Zipf
	if s.zipf {
		zipf = rand.NewZipf(rng, 1.1, 1, uint64(s.keys-1))
	}
	n := int(s.rate * d.Seconds())
	in := &inputs{ops: make([]opIn, n)}
	for i := range in.ops {
		op := &in.ops[i]
		op.due = time.Duration(float64(i) * float64(time.Second) / s.rate)
		if zipf != nil {
			op.key = int(zipf.Uint64())
		} else {
			op.key = rng.Intn(s.keys)
		}
		if rng.Float64() < s.readFrac {
			op.kind = opRead
		} else {
			op.val = fmt.Sprintf("v%08x-%09d", uint32(seed), i)
		}
	}
	return in
}

// writer returns the index of the operation that wrote val (genInputs
// formats values as "v<seed>-<index>"), or -1 for any other string.
func writer(val string) int {
	if len(val) != 19 || val[0] != 'v' || val[9] != '-' {
		return -1
	}
	n, err := strconv.Atoi(val[10:])
	if err != nil {
		return -1
	}
	return n
}

// opOut is what happened to one operation. issue and done are offsets from
// the schedule origin; the generator writes issue, the operation's own
// goroutine everything else.
type opOut struct {
	issue, done time.Duration
	err         error
	// KV: the write's (slot, index); floor is the key's highest
	// acknowledged (slot, index) when the read was issued.
	pos   pos
	floor pos
	// Reads: the index of the write whose value was returned (see writer),
	// kept instead of the value so reads do not pin overwritten values in
	// the heap; found is false when the key had no value.
	got   int
	found bool
	// Registers: the version written or read, and for reads the highest
	// acknowledged write version of the register at issue.
	ver, floorVer version
}

// results is one driven run.
type results struct {
	winStart, winEnd time.Duration // the window, as due offsets
	measured         time.Duration // the window as the generator timed it
	out              []opOut
	inflightMax      int64
	// Per one-second slice of the window: process user+sys CPU, heap
	// objects allocated, and operations issued.
	sliceCPU    []time.Duration
	sliceAllocs []uint64
	sliceOps    []int
	heapBase    uint64   // live heap bytes before the first cluster opened
	heapLive    uint64   // lowest live heap bytes sampled over the window
	ctr0, ctr1  counters // layer counters at window start and end
}

func (r *results) inWindow(op *opIn) bool { return op.due >= r.winStart && op.due < r.winEnd }

// newResults allocates a run's results and records the live heap the
// benchmark's own inputs and results hold, so heap_live_mb counts only
// what the cluster adds.
func newResults(in *inputs, window time.Duration) *results {
	res := &results{winStart: warmup, winEnd: warmup + window, out: make([]opOut, len(in.ops))}
	runtime.GC()
	res.heapBase = heapLive()
	return res
}

// drive runs the open loop: a single generator goroutine issues every
// operation at its due time, each on its own goroutine so a slow operation
// never delays the next, and waits for all of them after the window.
func drive(ctx context.Context, sys system, in *inputs, res *results, tr *tracer) {
	var (
		wg       sync.WaitGroup
		inflight atomic.Int64
		cpu0     time.Duration
		allocs0  uint64
		issued   int
		next     time.Duration // due offset closing the current slice
		started  bool
		t0       time.Time
		heapWG   sync.WaitGroup
		heap     []float64
		stopHeap = make(chan struct{})
	)
	start := time.Now()
	if tr != nil {
		tr.begin(start)
	}
	for i := range in.ops {
		op, out := &in.ops[i], &res.out[i]
		if d := time.Until(start.Add(op.due)); d > 0 {
			time.Sleep(d)
		}
		if !started && op.due >= res.winStart {
			started = true
			t0 = time.Now()
			res.ctr0 = sys.counters()
			cpu0, allocs0 = cpuTime(), heapAllocs()
			next = res.winStart + slice
			heapWG.Add(1)
			go func() {
				defer heapWG.Done()
				heap = sampleHeap(stopHeap)
			}()
			if tr != nil {
				tr.window(true)
			}
		}
		if started && op.due >= next && next < res.winEnd {
			cpu0, allocs0 = res.closeSlice(cpu0, allocs0, issued)
			issued, next = 0, next+slice
		}
		if started {
			issued++
		}
		out.issue = time.Since(start)
		if n := inflight.Add(1); n > res.inflightMax && res.inWindow(op) {
			res.inflightMax = n
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			octx, cancel := context.WithTimeout(ctx, opTimeout)
			sys.do(octx, op, out)
			cancel()
			out.done = time.Since(start)
			inflight.Add(-1)
		}()
	}
	if d := time.Until(start.Add(res.winEnd)); d > 0 {
		time.Sleep(d)
	}
	res.measured = time.Since(t0)
	res.closeSlice(cpu0, allocs0, issued)
	res.ctr1 = sys.counters()
	close(stopHeap)
	heapWG.Wait()
	res.heapLive = heapLive()
	if len(heap) > 0 {
		res.heapLive = uint64(slices.Min(heap))
	}
	if tr != nil {
		tr.window(false)
	}
	wg.Wait()
}

// slice is the length of the window's slices; CPU and allocations per
// operation are medians over slices, so one disturbed second (a GC burst,
// a neighbour's CPU steal) moves them less than it would a whole-window
// ratio.
const slice = time.Second

// closeSlice records the slice ending now and returns the counters the
// next slice starts from.
func (r *results) closeSlice(cpu0 time.Duration, allocs0 uint64, issued int) (time.Duration, uint64) {
	cpu, allocs := cpuTime(), heapAllocs()
	r.sliceCPU = append(r.sliceCPU, cpu-cpu0)
	r.sliceAllocs = append(r.sliceAllocs, allocs-allocs0)
	r.sliceOps = append(r.sliceOps, issued)
	return cpu, allocs
}

// perOp returns the median over slices of a per-slice total divided by the
// operations issued in that slice.
func (r *results) perOp(total func(i int) float64) float64 {
	var v []float64
	for i, n := range r.sliceOps {
		if n > 0 {
			v = append(v, total(i)/float64(n))
		}
	}
	return median(v)
}

// heapEvery is the live-heap sampling cadence during the window.
const heapEvery = 100 * time.Millisecond

// sampleHeap samples the live heap as of the latest GC cycle until stop
// closes. The lowest sample is the state the cluster retains under load
// with the least in-flight work: the median moved with how far CPU steal
// let operations back up, and a reading after the window with how far
// queues had grown.
func sampleHeap(stop <-chan struct{}) []float64 {
	var out []float64
	tick := time.NewTicker(heapEvery)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return out
		case <-tick.C:
			out = append(out, float64(heapLive()))
		}
	}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

func heapAllocs() uint64 { return readMetric("/gc/heap/allocs:objects") }
func heapLive() uint64   { return readMetric("/gc/heap/live:bytes") }

// percentile returns the nearest-rank q-quantile of sorted samples.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
