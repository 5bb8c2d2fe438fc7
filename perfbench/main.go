// Command perfbench is the repository benchmark: one workload per run,
// driven open loop against a cluster opened through the public gqs surface,
// checked for correctness, and reported as one JSON line.
//
//	go run . -workload kv-write -seed 1 -seconds 10 -trace 0
//
// With -trace 0 the last line carries the end-to-end metrics; with -trace 1
// the run records spans, message records and mailbox probes and the last
// line carries the per-layer metrics instead. perfbench/run.py builds and
// invokes this program; see perfbench/README.md for the workloads, the
// metric definitions and the known defects the numbers show.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// A run opens and warms a cluster at least minSetups times and keeps going
// until setupBudget is spent or maxSetups is reached; setup_s is the median
// and the last cluster carries the measured load.
const (
	minSetups   = 5
	maxSetups   = 25
	setupBudget = time.Second
)

// warmup is the unmeasured open-loop prefix before the window.
const warmup = 2 * time.Second

// lateBound is the generator validity bound: a run whose generator fell
// further behind its schedule than this is invalid and reports no figures.
const lateBound = 250 * time.Millisecond

func main() {
	var (
		name    = flag.String("workload", "", "workload name (kv-write, kv-read, reg-tcp, reg-f1)")
		seed    = flag.Int64("seed", 1, "input seed: keys, read/write mix and values derive from it")
		seconds = flag.Int("seconds", 10, "measured window in seconds")
		trace   = flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
		outDir  = flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for traces and recorded results")
	)
	flag.Parse()
	spec, ok := specs[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	code, err := run(spec, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *outDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", spec.name, err)
	}
	os.Exit(code)
}

// run executes one workload run and prints its report; the returned code is
// the process exit code.
func run(spec spec, seed int64, window time.Duration, traced bool, outDir string) (int, error) {
	ctx := context.Background()
	in := genInputs(spec, seed, warmup+window)
	res := newResults(in, window)
	fmt.Printf("# workload=%s seed=%d rate=%g ops/s window=%s warmup=%s traced=%v ops_due=%d\n",
		spec.name, seed, spec.rate, window, warmup, traced, len(in.ops))

	var (
		setups []float64
		spent  time.Duration
		sys    system
	)
	for i := 0; ; i++ {
		s, d, err := spec.open(ctx, seed, traced)
		if err != nil {
			return 1, fmt.Errorf("setup %d: %w", i, err)
		}
		setups = append(setups, d.Seconds())
		if spent += d; i+1 >= maxSetups || (i+1 >= minSetups && spent >= setupBudget) {
			sys = s
			break
		}
		s.close()
	}
	defer sys.close()
	var tr *tracer
	if traced {
		tr = newTracer(sys)
	}

	drive(ctx, sys, in, res, tr)
	checks := sys.verify(ctx, in, res)
	sys.close()

	rep := summarize(in, res, checks, median(setups))
	fmt.Printf("# setup: n=%d median=%.6fs\n", len(setups), median(setups))
	rep.print(os.Stdout)
	if !rep.valid {
		fmt.Printf("# INVALID: generator fell behind its schedule by %.1f ms (bound %s); latencies not reported\n",
			rep.maxLateMs, lateBound)
		return 3, nil
	}
	if !checks.ok() {
		fmt.Printf("# first violation: %s\n", checks.first)
	}
	resultsFile := filepath.Join(outDir, "untraced-"+spec.name+".jsonl")
	printMetrics(os.Stdout, rep.all())
	var metrics map[string]metric
	if traced {
		metrics = tr.layerMetrics(in, res, checks, rep)
		all := rep.all()
		for _, k := range ungated {
			metrics["traced."+k] = all[k]
		}
		printOverhead(os.Stdout, all, resultsFile)
		if err := tr.write(filepath.Join(outDir, "trace-"+spec.name+".tsv"), in, res); err != nil {
			return 1, err
		}
		printMetrics(os.Stdout, metrics)
	} else {
		metrics = rep.endToEnd()
		if err := appendResult(resultsFile, seed, rep.all()); err != nil {
			return 1, err
		}
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{checks.ok() && rep.failed == 0, rep.attempted, rep.failed, metrics}
	b, err := json.Marshal(out)
	if err != nil {
		return 1, err
	}
	fmt.Println(string(b))
	return 0, nil
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printMetrics(w *os.File, m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "# %-40s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}

// appendResult records an untraced run's end-to-end metrics so a later
// traced run of the same workload can print its tracing overhead.
func appendResult(path string, seed int64, m map[string]metric) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Seed    int64             `json:"seed"`
		Metrics map[string]metric `json:"metrics"`
	}{seed, m})
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printOverhead prints the traced run's end-to-end values beside the median
// of the recorded untraced runs of the same workload.
func printOverhead(w *os.File, traced map[string]metric, path string) {
	b, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(w, "# tracing overhead: no untraced runs recorded in %s\n", path)
		return
	}
	vals := map[string][]float64{}
	runs := 0
	for _, line := range bytes.Split(b, []byte("\n")) {
		var r struct {
			Metrics map[string]metric `json:"metrics"`
		}
		if json.Unmarshal(line, &r) != nil {
			continue
		}
		runs++
		for k, m := range r.Metrics {
			vals[k] = append(vals[k], m.Value)
		}
	}
	fmt.Fprintf(w, "# tracing overhead: traced run vs median of %d untraced runs\n", runs)
	names := make([]string, 0, len(traced))
	for k := range traced {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		if len(vals[k]) == 0 {
			continue
		}
		med := median(vals[k])
		diff := 0.0
		if med != 0 {
			diff = 100 * (traced[k].Value - med) / med
		}
		fmt.Fprintf(w, "#   %-16s traced %12.6g  untraced %12.6g  %+7.1f%% %s\n", k, traced[k].Value, med, diff, traced[k].Unit)
	}
}
