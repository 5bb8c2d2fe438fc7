package main

import (
	"fmt"
	"io"
	"sort"
)

// report is a run's end-to-end summary over the operations due in the
// window.
type report struct {
	attempted, failed, ok int
	windowS               float64
	setupS                float64
	reads, writes         []float64 // latency ms, due → done, of OK operations
	readsVerify           bool      // reads are the post-window verification reads
	lateP50, lateP99      float64
	maxLateMs             float64
	inflightMax           int64
	cpuUsPerOp            float64
	allocsPerOp           float64
	heapLiveMB            float64
	valid                 bool
	res                   *results
}

func summarize(in *inputs, res *results, chk *checks, setupS float64) *report {
	r := &report{windowS: res.measured.Seconds(), setupS: setupS, inflightMax: res.inflightMax, res: res}
	var late []float64
	readsDue := 0
	for i := range in.ops {
		op, out := &in.ops[i], &res.out[i]
		if !res.inWindow(op) {
			continue
		}
		r.attempted++
		if op.kind == opRead {
			readsDue++
		}
		l := float64(out.issue-op.due) / 1e6
		late = append(late, l)
		r.maxLateMs = max(r.maxLateMs, l)
		if out.err != nil || chk.bad[i] {
			r.failed++
			continue
		}
		r.ok++
		lat := float64(out.done-op.due) / 1e6
		if op.kind == opRead {
			r.reads = append(r.reads, lat)
		} else {
			r.writes = append(r.writes, lat)
		}
	}
	if readsDue == 0 {
		r.reads, r.readsVerify = append([]float64(nil), chk.readLat...), true
	}
	sort.Float64s(late)
	sort.Float64s(r.reads)
	sort.Float64s(r.writes)
	r.lateP50, r.lateP99 = percentile(late, 0.5), percentile(late, 0.99)
	r.valid = r.maxLateMs <= float64(lateBound.Milliseconds())
	r.cpuUsPerOp = res.perOp(func(i int) float64 { return float64(res.sliceCPU[i].Nanoseconds()) / 1e3 })
	r.allocsPerOp = res.perOp(func(i int) float64 { return float64(res.sliceAllocs[i]) })
	r.heapLiveMB = (float64(res.heapLive) - float64(res.heapBase)) / (1 << 20)
	return r
}

// gated names the end-to-end metrics BENCHMARK.json bounds. The ungated
// ones are printed with them by every run, but they move too much from run
// to run on a shared two-core machine to carry a bound (see README.md);
// traced runs report their own values of them as traced.* per-layer
// metrics.
var (
	gated   = []string{"setup_s", "ops_s", "ok_share", "cpu_us_per_op", "heap_live_mb"}
	ungated = []string{"write_p50_ms", "write_p99_ms", "read_p50_ms", "read_p99_ms", "allocs_per_op"}
)

// endToEnd returns the gated end-to-end metrics.
func (r *report) endToEnd() map[string]metric {
	all := r.all()
	m := make(map[string]metric, len(gated))
	for _, k := range gated {
		m[k] = all[k]
	}
	return m
}

// all returns every end-to-end metric, gated or not.
func (r *report) all() map[string]metric {
	return map[string]metric{
		"setup_s":       {r.setupS, "s"},
		"ops_s":         {float64(r.ok) / r.windowS, "ops/s"},
		"ok_share":      {float64(r.ok) / float64(r.attempted), "ratio"},
		"write_p50_ms":  {percentile(r.writes, 0.5), "ms"},
		"write_p99_ms":  {percentile(r.writes, 0.99), "ms"},
		"read_p50_ms":   {percentile(r.reads, 0.5), "ms"},
		"read_p99_ms":   {percentile(r.reads, 0.99), "ms"},
		"cpu_us_per_op": {r.cpuUsPerOp, "us"},
		"allocs_per_op": {r.allocsPerOp, "count"},
		"heap_live_mb":  {r.heapLiveMB, "MB"},
	}
}

// print writes the human-readable summary: the generator's validity
// figures and, for a valid run, the sample counts behind every percentile.
func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "# attempted=%d ok=%d failed=%d window=%.3fs\n", r.attempted, r.ok, r.failed, r.windowS)
	fmt.Fprintf(w, "# loadgen: late_p50=%.3fms late_p99=%.3fms late_max=%.3fms inflight_max=%d valid=%v\n",
		r.lateP50, r.lateP99, r.maxLateMs, r.inflightMax, r.valid)
	if !r.valid {
		return
	}
	fmt.Fprintf(w, "# writes: n=%d p50=%.3fms p99=%.3fms max=%.3fms\n", len(r.writes), percentile(r.writes, 0.5), percentile(r.writes, 0.99), percentile(r.writes, 1))
	src := "window"
	if r.readsVerify {
		src = "post-window verification SyncGets"
	}
	fmt.Fprintf(w, "# reads (%s): n=%d p50=%.3fms p99=%.3fms max=%.3fms\n", src, len(r.reads), percentile(r.reads, 0.5), percentile(r.reads, 0.99), percentile(r.reads, 1))
	fmt.Fprintf(w, "# cpu_us_per_op by %s slice:", slice)
	for i, n := range r.res.sliceOps {
		fmt.Fprintf(w, " %.1f", float64(r.res.sliceCPU[i].Nanoseconds())/1e3/float64(max(n, 1)))
	}
	fmt.Fprintln(w)
}
