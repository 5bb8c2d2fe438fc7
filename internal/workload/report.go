package workload

import (
	"encoding/json"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"repro/internal/quorum"
)

// LatencySummary is the serializable digest of a histogram.
type LatencySummary struct {
	Count  uint64  `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P90Ms  float64 `json:"p90_ms"`
	P99Ms  float64 `json:"p99_ms"`
	P999Ms float64 `json:"p999_ms"`
	MaxMs  float64 `json:"max_ms"`
}

func msf(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}

// Summarize digests a histogram into its serializable percentile summary.
func Summarize(h *Histogram) LatencySummary {
	return LatencySummary{
		Count:  h.Count(),
		MeanMs: msf(h.Mean()),
		P50Ms:  msf(h.Quantile(0.50)),
		P90Ms:  msf(h.Quantile(0.90)),
		P99Ms:  msf(h.Quantile(0.99)),
		P999Ms: msf(h.Quantile(0.999)),
		MaxMs:  msf(h.Max()),
	}
}

// Report is the result of one workload run. It serializes to JSON so runs
// can seed benchmark trajectories and be diffed across PRs.
type Report struct {
	Protocol     string  `json:"protocol"`
	Net          string  `json:"net"`
	Nodes        int     `json:"nodes"`
	Clients      int     `json:"clients"`
	Mode         string  `json:"mode"` // "open" (paced) or "closed"
	TargetRate   float64 `json:"target_ops_per_sec,omitempty"`
	Dist         string  `json:"dist"`
	Keys         int     `json:"keys"`
	ReadFraction float64 `json:"read_fraction"`
	Seed         int64   `json:"seed"`
	DurationSec  float64 `json:"duration_sec"`
	WarmupSec    float64 `json:"warmup_sec,omitempty"`

	// Batch, BatchWindowMs and Pipeline record the kv group-commit
	// configuration asked for (zero for the smr defaults / synchronous
	// clients).
	Batch         int     `json:"batch,omitempty"`
	BatchWindowMs float64 `json:"batch_window_ms,omitempty"`
	Pipeline      int     `json:"pipeline,omitempty"`

	TotalOps  uint64  `json:"total_ops"`
	OpsPerSec float64 `json:"ops_per_sec"`

	Latency LatencySummary `json:"latency"`
	Reads   LatencySummary `json:"reads"`
	Writes  LatencySummary `json:"writes"`

	Errors map[string]uint64 `json:"errors"`

	// ThroughputPerSec is the successful-operation count of each 1s bucket
	// of the measured window.
	ThroughputPerSec []uint64 `json:"throughput_per_sec"`

	// Pattern and FaultAtSec record mid-run fault injection ("" when none).
	// On a sharded run the pattern applies to shard 0 only.
	Pattern    string  `json:"pattern,omitempty"`
	FaultAtSec float64 `json:"fault_at_sec,omitempty"`
	// Callers are the nodes client loops were assigned to.
	Callers []int `json:"callers"`

	// ShardCount and PerShard describe a sharded kv run (ShardCount > 1):
	// one section per shard group, with the key range's own throughput and
	// latency digest. The top-level Latency/Reads/Writes are the exact
	// bucket-level merge of the per-shard histograms, not an average of
	// their percentiles.
	ShardCount int           `json:"shards,omitempty"`
	PerShard   []ShardReport `json:"per_shard,omitempty"`

	// Message-level counters of the simulated network (mem only).
	MsgsSent      int64 `json:"msgs_sent,omitempty"`
	MsgsDelivered int64 `json:"msgs_delivered,omitempty"`
	MsgsDropped   int64 `json:"msgs_dropped,omitempty"`

	// Nemesis is the chaos section of a scenario run (Config.Nemesis): the
	// actually-injected event timeline and the closing-check verdicts.
	Nemesis *NemesisReport `json:"nemesis,omitempty"`

	// Compaction is the log-compaction section of every kv run:
	// aggregated checkpoint/truncation counters and the peak slot occupancy
	// against the slot budget the run was configured with.
	Compaction *CompactionReport `json:"compaction,omitempty"`
}

// CompactionReport summarizes checkpointed log compaction over one run. The
// event counters sum across every process of every shard; PeakOccupancy is
// the worst live-window footprint any process reached — a sustained-write
// run is healthy when TotalOps greatly exceeds SlotBudget while
// PeakOccupancy stays a small multiple of the checkpoint interval.
type CompactionReport struct {
	Interval         int64  `json:"interval"`
	SlotBudget       int    `json:"slot_budget"`
	Checkpoints      uint64 `json:"checkpoints"`
	Truncations      uint64 `json:"truncations"`
	SlotsFreed       uint64 `json:"slots_freed"`
	InstallsSent     uint64 `json:"installs_sent"`
	InstallsReceived uint64 `json:"installs_received"`
	PeakOccupancy    int64  `json:"peak_occupancy"`
}

// NemesisEvent is one fault event the scenario engine actually injected,
// with both its scheduled and its measured offset from the start of the
// measurement window.
type NemesisEvent struct {
	AtMs        float64 `json:"at_ms"`
	AppliedAtMs float64 `json:"applied_at_ms"`
	Kind        string  `json:"kind"`
	Target      string  `json:"target"`
	Detail      string  `json:"detail,omitempty"` // gray fault / skew parameters
}

// NemesisReport closes a chaos run: everything needed to replay it (spec
// and seed reproduce the timeline bit for bit) plus the verdicts of the
// linearizability and graceful-degradation checks over the probe clients'
// operations.
type NemesisReport struct {
	Spec   string         `json:"spec"`
	Seed   int64          `json:"seed"`
	Events []NemesisEvent `json:"events"`

	// ProbeOps / ProbeReads / ProbeErrors count the dedicated probe
	// clients' operations against the chaos shard during the measured
	// window (reads are the linearizable SyncGet successes among ops).
	ProbeOps    int64  `json:"probe_ops"`
	ProbeReads  int64  `json:"probe_reads"`
	ProbeErrors uint64 `json:"probe_errors"`
	// ProbeOpsPerSec / ProbeReadsPerSec are the per-second availability
	// buckets the degradation check consumed — the chaos shard's pulse.
	ProbeOpsPerSec   []int64 `json:"probe_ops_per_sec"`
	ProbeReadsPerSec []int64 `json:"probe_reads_per_sec"`

	// HistoryOps is the size of the recorded lincheck history;
	// Linearizable is lincheck.CheckKVHistory's verdict over it, with the
	// offending per-key sub-history in LincheckError on failure.
	HistoryOps    int    `json:"history_ops"`
	Linearizable  bool   `json:"linearizable"`
	LincheckError string `json:"lincheck_error,omitempty"`

	// DegradationViolations are nemesis.CheckDegradation's findings: empty
	// iff availability held in every steady quorate bucket and leased
	// reads fell back after a holder kill.
	DegradationViolations []string `json:"degradation_violations,omitempty"`
}

// Passed reports whether every closing check of the chaos run held.
func (n *NemesisReport) Passed() bool {
	return n.Linearizable && len(n.DegradationViolations) == 0
}

// ShardReport is one shard group's section of a sharded run.
type ShardReport struct {
	Shard     int               `json:"shard"`
	Ops       uint64            `json:"ops"`
	OpsPerSec float64           `json:"ops_per_sec"`
	Latency   LatencySummary    `json:"latency"`
	Reads     LatencySummary    `json:"reads"`
	Writes    LatencySummary    `json:"writes"`
	Errors    map[string]uint64 `json:"errors"`
}

// buildReport assembles the report from the run's per-shard accumulators
// (one element for unsharded runs). Global digests are exact bucket-level
// merges of the shard histograms.
func buildReport(cfg Config, measured time.Duration, qs quorum.System, callers []int, reads, writes []*opMetrics, series []atomic.Uint64, faultAt time.Duration, tgt target, nem *nemesisRun) *Report {
	allReads, allWrites := NewHistogram(), NewHistogram()
	var readErrs, writeErrs uint64
	for i := range reads {
		allReads.Merge(reads[i].hist)
		allWrites.Merge(writes[i].hist)
		readErrs += reads[i].errs.Load()
		writeErrs += writes[i].errs.Load()
	}
	all := NewHistogram()
	all.Merge(allReads)
	all.Merge(allWrites)

	mode := "closed"
	if cfg.Rate > 0 {
		mode = "open"
	}
	r := &Report{
		Protocol:      string(cfg.Protocol),
		Net:           string(cfg.Net),
		Nodes:         cfg.Nodes,
		Clients:       cfg.Clients,
		Mode:          mode,
		TargetRate:    cfg.Rate,
		Dist:          string(cfg.Dist),
		Keys:          cfg.Keys,
		ReadFraction:  cfg.ReadFraction,
		Seed:          cfg.Seed,
		DurationSec:   measured.Seconds(),
		WarmupSec:     cfg.Warmup.Seconds(),
		Batch:         cfg.Batch,
		BatchWindowMs: msf(cfg.BatchWindow),
		Pipeline:      cfg.Pipeline,
		TotalOps:      all.Count(),
		OpsPerSec:     float64(all.Count()) / measured.Seconds(),
		Latency:       Summarize(all),
		Reads:         Summarize(allReads),
		Writes:        Summarize(allWrites),
		Errors: map[string]uint64{
			"read":  readErrs,
			"write": writeErrs,
		},
		Callers: callers,
	}
	if len(reads) > 1 {
		r.ShardCount = len(reads)
		for i := range reads {
			sh := NewHistogram()
			sh.Merge(reads[i].hist)
			sh.Merge(writes[i].hist)
			r.PerShard = append(r.PerShard, ShardReport{
				Shard:     i,
				Ops:       sh.Count(),
				OpsPerSec: float64(sh.Count()) / measured.Seconds(),
				Latency:   Summarize(sh),
				Reads:     Summarize(reads[i].hist),
				Writes:    Summarize(writes[i].hist),
				Errors: map[string]uint64{
					"read":  reads[i].errs.Load(),
					"write": writes[i].errs.Load(),
				},
			})
		}
	}
	buckets := int((measured + time.Second - 1) / time.Second)
	if buckets > len(series) {
		buckets = len(series)
	}
	for i := 0; i < buckets; i++ {
		r.ThroughputPerSec = append(r.ThroughputPerSec, series[i].Load())
	}
	if cfg.Pattern > 0 {
		r.Pattern = qs.F.Patterns[cfg.Pattern-1].Name
		r.FaultAtSec = (faultAt - cfg.Warmup).Seconds()
	}
	if st, ok := tgt.stats(); ok {
		r.MsgsSent, r.MsgsDelivered, r.MsgsDropped = st.Sent, st.Delivered, st.Dropped
	}
	if nem != nil {
		r.Nemesis = nem.report()
	}
	if kt, ok := tgt.(*kvTarget); ok {
		m := kt.kv.CompactionMetrics()
		r.Compaction = &CompactionReport{
			Interval:         kt.compactInterval,
			SlotBudget:       kt.slotBudget,
			Checkpoints:      m.Checkpoints,
			Truncations:      m.Truncations,
			SlotsFreed:       m.SlotsFreed,
			InstallsSent:     m.InstallsSent,
			InstallsReceived: m.InstallsReceived,
			PeakOccupancy:    m.PeakOccupancy,
		}
	}
	return r
}

// JSON renders the report as indented JSON.
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Text renders a human-readable summary.
func (r *Report) Text(w io.Writer) {
	fmt.Fprintf(w, "workload: %s over %s, %d nodes, %d clients (%s loop), %s keys=%d read=%.0f%%",
		r.Protocol, r.Net, r.Nodes, r.Clients, r.Mode, r.Dist, r.Keys, r.ReadFraction*100)
	if r.ShardCount > 1 {
		fmt.Fprintf(w, " shards=%d", r.ShardCount)
	}
	if r.Batch > 0 || r.BatchWindowMs > 0 || r.Pipeline > 0 {
		fmt.Fprintf(w, " batch=%d/%.1fms pipeline=%d", r.Batch, r.BatchWindowMs, r.Pipeline)
	}
	fmt.Fprintln(w)
	if r.Pattern != "" {
		if r.ShardCount > 1 {
			fmt.Fprintf(w, "fault: pattern %s injected into shard 0 at t=%.1fs (callers %v)\n", r.Pattern, r.FaultAtSec, r.Callers)
		} else {
			fmt.Fprintf(w, "fault: pattern %s injected at t=%.1fs (callers %v)\n", r.Pattern, r.FaultAtSec, r.Callers)
		}
	}
	if nm := r.Nemesis; nm != nil {
		verdict := "linearizable"
		if !nm.Linearizable {
			verdict = "NOT LINEARIZABLE"
		}
		fmt.Fprintf(w, "nemesis: %q seed=%d — %d events, %d probe ops (%d reads, %d errors), history of %d ops %s\n",
			nm.Spec, nm.Seed, len(nm.Events), nm.ProbeOps, nm.ProbeReads, nm.ProbeErrors, nm.HistoryOps, verdict)
		for _, e := range nm.Events {
			fmt.Fprintf(w, "  +%.2fs %s %s", e.AppliedAtMs/1000, e.Kind, e.Target)
			if e.Detail != "" {
				fmt.Fprintf(w, " %s", e.Detail)
			}
			fmt.Fprintln(w)
		}
		for _, v := range nm.DegradationViolations {
			fmt.Fprintf(w, "  degradation violation: %s\n", v)
		}
		if nm.LincheckError != "" {
			fmt.Fprintf(w, "  lincheck: %s\n", nm.LincheckError)
		}
	}
	fmt.Fprintf(w, "ops: %d in %.1fs = %.1f ops/sec (errors: read %d, write %d)\n",
		r.TotalOps, r.DurationSec, r.OpsPerSec, r.Errors["read"], r.Errors["write"])
	row := func(name string, s LatencySummary) {
		if s.Count == 0 {
			return
		}
		fmt.Fprintf(w, "%-8s n=%-7d p50=%.2fms p90=%.2fms p99=%.2fms p99.9=%.2fms max=%.2fms\n",
			name, s.Count, s.P50Ms, s.P90Ms, s.P99Ms, s.P999Ms, s.MaxMs)
	}
	row("all", r.Latency)
	row("reads", r.Reads)
	row("writes", r.Writes)
	for _, s := range r.PerShard {
		fmt.Fprintf(w, "shard %-2d n=%-7d %.1f ops/s p50=%.2fms p99=%.2fms (errors: read %d, write %d)\n",
			s.Shard, s.Ops, s.OpsPerSec, s.Latency.P50Ms, s.Latency.P99Ms, s.Errors["read"], s.Errors["write"])
	}
	if len(r.ThroughputPerSec) > 0 {
		fmt.Fprintf(w, "throughput/s:")
		for _, c := range r.ThroughputPerSec {
			fmt.Fprintf(w, " %d", c)
		}
		fmt.Fprintln(w)
	}
	if c := r.Compaction; c != nil {
		fmt.Fprintf(w, "compaction: interval=%d budget=%d checkpoints=%d truncations=%d freed=%d installs=%d/%d peak=%d\n",
			c.Interval, c.SlotBudget, c.Checkpoints, c.Truncations, c.SlotsFreed,
			c.InstallsSent, c.InstallsReceived, c.PeakOccupancy)
	}
	if r.MsgsSent > 0 {
		fmt.Fprintf(w, "network: %d sent, %d delivered, %d dropped\n",
			r.MsgsSent, r.MsgsDelivered, r.MsgsDropped)
	}
}
