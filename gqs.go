package gqs

import (
	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/graph"
	"repro/internal/lattice"
	"repro/internal/lease"
	"repro/internal/node"
	"repro/internal/quorum"
	"repro/internal/register"
	"repro/internal/shard"
	"repro/internal/smr"
	"repro/internal/snapshot"
	"repro/internal/transport"
	"repro/internal/workload"
)

// Core model types.
type (
	// Proc identifies a process (0..n-1).
	Proc = failure.Proc
	// Channel is a unidirectional channel between two processes.
	Channel = failure.Channel
	// Pattern is a failure pattern (P, C): processes that may crash and
	// channels that may disconnect.
	Pattern = failure.Pattern
	// FailProneSystem is a set of failure patterns.
	FailProneSystem = failure.System
	// ProcSet is a set of processes (used for quorums).
	ProcSet = graph.BitSet
	// QuorumSystem is a (generalized) read-write quorum system (F, R, W).
	QuorumSystem = quorum.System
)

// Failure-model constructors.
var (
	// NewPattern builds a failure pattern over n processes.
	NewPattern = failure.NewPattern
	// NewFailProneSystem builds a fail-prone system from patterns.
	NewFailProneSystem = failure.NewSystem
	// Threshold returns the crash-only system where any k of n processes
	// may fail (Example 4).
	Threshold = failure.Threshold
	// Minority is Threshold(n, floor((n-1)/2)).
	Minority = failure.Minority
	// Figure1System is the paper's running-example fail-prone system.
	Figure1System = failure.Figure1
	// IngressLoss / EgressLoss / OneWayRing / Partition / SoftPartition
	// generate fail-prone systems for common asymmetric failure scenarios.
	IngressLoss   = failure.IngressLoss
	EgressLoss    = failure.EgressLoss
	OneWayRing    = failure.OneWayRing
	Partition     = failure.Partition
	SoftPartition = failure.SoftPartition
)

// Quorum-system functions.
var (
	// NewProcSet builds a process set able to hold 0..n-1.
	NewProcSet = graph.NewBitSet
	// ProcSetOf builds a process set from elements.
	ProcSetOf = graph.BitSetOf
	// FindGQS decides GQS existence and returns a witness (Theorem 2's
	// canonical construction).
	FindGQS = quorum.Find
	// GQSExists reports whether a fail-prone system admits any GQS.
	GQSExists = quorum.Exists
	// MajorityQuorums is the classical threshold quorum system (Example 6).
	MajorityQuorums = quorum.Majority
	// Figure1GQS is the paper's running-example generalized quorum system.
	Figure1GQS = quorum.Figure1
	// NetworkGraph returns the complete directed network graph on n
	// processes.
	NetworkGraph = quorum.Network
	// ComputeQuorumMetrics evaluates load/size/coverage metrics of a quorum
	// system.
	ComputeQuorumMetrics = quorum.ComputeMetrics
)

// QuorumMetrics summarizes structural measures of a quorum system.
type QuorumMetrics = quorum.Metrics

// Runtime types.
type (
	// Node is the actor-style process runtime hosting protocol endpoints.
	Node = node.Node
	// Network is the abstract message transport.
	Network = transport.Network
	// MemNetwork is the in-memory simulated network with fault injection.
	MemNetwork = transport.MemNetwork
	// TCPNetwork runs the protocols over TCP sockets.
	TCPNetwork = transport.TCPNetwork
	// DelayModel shapes simulated message delays.
	DelayModel = transport.DelayModel
	// UniformDelay delays each hop uniformly within bounds.
	UniformDelay = transport.UniformDelay
	// PartialSync is the GST + delta delay model of §7.
	PartialSync = transport.PartialSync
)

// Runtime constructors and options.
var (
	// NewNode creates a process runtime on a network.
	NewNode = node.New
	// NewMemNetwork creates the in-memory simulated network.
	NewMemNetwork = transport.NewMem
	// NewTCPNetwork creates one process's TCP transport endpoint.
	NewTCPNetwork = transport.NewTCP
	// WithDelay / WithSeed / WithMode / WithoutForwarding configure
	// NewMemNetwork.
	WithDelay         = transport.WithDelay
	WithSeed          = transport.WithSeed
	WithMode          = transport.WithMode
	WithoutForwarding = transport.WithoutForwarding
)

// Protocol endpoint types.
type (
	// Register is the MWMR atomic register endpoint (Figure 4).
	Register = register.Register
	// RegisterOptions configures a register endpoint.
	RegisterOptions = register.Options
	// Version tags register values.
	Version = register.Version
	// Snapshot is the SWMR atomic snapshot endpoint.
	Snapshot = snapshot.Snapshot
	// SnapshotOptions configures a snapshot endpoint.
	SnapshotOptions = snapshot.Options
	// LatticeAgreement is the single-shot lattice agreement endpoint.
	LatticeAgreement = lattice.Agreement
	// LatticeAgreementOptions configures a lattice agreement endpoint.
	LatticeAgreementOptions = lattice.AgreementOptions
	// Lattice is a join semi-lattice over string-encoded elements.
	Lattice = lattice.Lattice
	// SetLattice / MaxIntLattice / VectorMaxLattice are ready-made lattices.
	SetLattice       = lattice.SetLattice
	MaxIntLattice    = lattice.MaxIntLattice
	VectorMaxLattice = lattice.VectorMaxLattice
	// Consensus is the partially synchronous consensus endpoint (Figure 6).
	Consensus = consensus.Consensus
	// ConsensusOptions configures a consensus endpoint.
	ConsensusOptions = consensus.Options
	// ReplicatedLog is a multi-slot replicated command log (SMR) built on
	// one consensus engine that decides every slot.
	ReplicatedLog = smr.Log
	// ReplicatedLogOptions configures a replicated log endpoint.
	ReplicatedLogOptions = smr.Options
	// ReplicatedKV is a linearizable key-value store over the replicated log.
	ReplicatedKV = smr.KV
	// BatchOptions tunes group commit and pipelined appends, the only
	// append path of a replicated log (ReplicatedLogOptions.Batch, or
	// WithBatch/WithPipeline on a cluster); the zero value takes defaults.
	BatchOptions = smr.BatchOptions
	// CompactionOptions tunes checkpointed log compaction, which every
	// replicated log runs (ReplicatedLogOptions.Compaction, or
	// WithCompaction on a cluster; shard groups take it through
	// WithGroupOptions): the applied state folds into periodic checkpoints,
	// the acknowledged decided prefix is truncated and its slots recycled,
	// and laggards heal by snapshot-install. The zero value takes the
	// defaults.
	CompactionOptions = smr.CompactionOptions
	// CompactionMetrics is a snapshot of a log's compaction counters
	// (checkpoints, truncations, freed slots, installs, peak occupancy).
	CompactionMetrics = smr.CompactionMetrics
	// AppendResult is the completion of a ReplicatedLog.AppendAsync: slot,
	// index within the slot's batch, error.
	AppendResult = smr.AppendResult
	// SetResult is the completion of an asynchronous KV Set.
	SetResult = smr.SetResult
	// KVPair is one key=value write of a SetMany group commit.
	KVPair = smr.KVPair
	// LeaseManager is one process's endpoint of the read-lease protocol:
	// time-bounded leases committed through the log let the holder serve
	// linearizable reads locally, no consensus round (see internal/lease).
	LeaseManager = lease.Manager
	// LeaseOptions configures a lease manager (holder, duration, skew).
	LeaseOptions = lease.Options
	// LeaseMetrics is a snapshot of a lease manager's counters.
	LeaseMetrics = lease.Metrics
	// ReadBarrier coalesces concurrent linearizable-read barriers at one
	// process into shared Sync no-op commits.
	ReadBarrier = lease.Barrier
)

// Cluster is the high-level adoption surface: Open derives (or validates) a
// GQS for a fail-prone system, provisions a cluster over the configured
// transport, and hands out typed clients for all six object kinds with
// pluggable failure-aware routing. See internal/core for details.
type (
	// Cluster is a provisioned deployment plus its validated quorum system.
	Cluster = core.Cluster
	// ClusterOption configures Open (WithQuorums, WithTCP, WithTick, ...).
	ClusterOption = core.Option
	// Object is the uniform lifecycle of every provisioned client.
	Object = core.Object
	// RoutingPolicy decides which processes a client routes operations to.
	RoutingPolicy = core.Policy
	// ClientMetrics is a snapshot of one client's operation counters.
	ClientMetrics = core.ClientMetrics
	// RegisterClient / SnapshotClient / LatticeClient / ConsensusClient /
	// LogClient / KVClient are the typed per-object client facades.
	RegisterClient  = core.RegisterClient
	SnapshotClient  = core.SnapshotClient
	LatticeClient   = core.LatticeClient
	ConsensusClient = core.ConsensusClient
	LogClient       = core.LogClient
	KVClient        = core.KVClient
)

// Cluster constructors, options, routing policies and errors.
var (
	// Open validates the fail-prone system, derives quorums if needed, and
	// starts the cluster.
	Open = core.Open
	// WithQuorums pins the quorum families instead of deriving them.
	WithQuorums = core.WithQuorums
	// WithNetwork supplies an externally owned transport.
	WithNetwork = core.WithNetwork
	// WithMem configures the default in-memory simulated network, e.g.
	// gqs.WithMem(gqs.WithSeed(7), gqs.WithDelay(...)).
	WithMem = core.WithMem
	// WithTCP runs the cluster over real TCP sockets.
	WithTCP = core.WithTCP
	// WithTick sets the quorum-access-function propagation interval.
	WithTick = core.WithTick
	// WithViewC sets the consensus view-duration constant.
	WithViewC = core.WithViewC
	// WithSlots sets the replicated log/KV slot window (it slides; see
	// WithCompaction).
	WithSlots = core.WithSlots
	// WithBatch tunes group commit on provisioned logs/KV stores: commands
	// arriving within the window (or until the op cap) coalesce into one
	// consensus round. WithPipeline sets how many batches stay in flight
	// across consecutive slots. Zeros take the smr defaults.
	WithBatch    = core.WithBatch
	WithPipeline = core.WithPipeline
	// WithCompaction tunes checkpointed log compaction on provisioned
	// logs/KV stores (checkpoint interval, ack timeout, clock). Every log
	// compacts without it: sustained workloads recycle slots, and replicas
	// that fall below the live window heal by snapshot-install in O(state).
	WithCompaction = core.WithCompaction
	// WithLease enables leased local reads on provisioned KV stores: the
	// holder process (WithLeaseHolder, default 0) serves SyncGet from its
	// applied state with no consensus round while its committed,
	// clock-skew-guarded lease is valid; on lease loss reads fall back to
	// the shared-barrier path.
	WithLease       = core.WithLease
	WithLeaseHolder = core.WithLeaseHolder
	// Fixed routes every operation to one process (no failover).
	Fixed = core.Fixed
	// RoundRobin spreads operations across all processes (the default).
	RoundRobin = core.RoundRobin
	// HealthyUf routes only to the termination component U_f of the
	// currently injected pattern — the processes the paper proves wait-free.
	HealthyUf = core.HealthyUf
	// ErrNoGQS reports that the fail-prone system is unimplementable
	// (Theorem 2).
	ErrNoGQS = core.ErrNoGQS
	// ErrClusterClosed / ErrClientClosed report use after Close.
	ErrClusterClosed = core.ErrClusterClosed
	ErrClientClosed  = core.ErrClientClosed
)

// Sharded KV: the keyspace partitioned across independent quorum-system
// groups behind a deterministic consistent-hash ring. Each shard is a full
// deployment (own transport, propagators, SMR log, failure pattern), so
// aggregate throughput scales with the shard count and a fault degrades only
// one key range. See internal/shard.
type (
	// ShardedStore is the multi-group deployment (OpenSharded).
	ShardedStore = shard.Store
	// ShardedKV is the cross-shard KV client: Set/Get/SyncGet route by key,
	// MultiGet fans out across shards, SetPolicy installs failure-aware
	// routing per shard.
	ShardedKV = shard.KV
	// ShardRing is the consistent-hash ring (virtual nodes, deterministic
	// seed) mapping keys to shards.
	ShardRing = shard.Ring
	// ShardOption configures OpenSharded.
	ShardOption = shard.Option
)

// Sharded-store constructors and options.
var (
	// OpenSharded provisions n independent quorum-system groups for the
	// fail-prone system behind one consistent-hash ring.
	OpenSharded = shard.Open
	// NewShardRing builds a standalone ring (shards, virtual nodes, seed).
	NewShardRing = shard.NewRing
	// WithVirtualNodes / WithRingSeed shape the ring; WithGroupOptions and
	// WithGroupOptionsFunc pass cluster options to every (or each) group.
	WithVirtualNodes     = shard.WithVirtualNodes
	WithRingSeed         = shard.WithRingSeed
	WithGroupOptions     = shard.WithGroupOptions
	WithGroupOptionsFunc = shard.WithGroupOptionsFunc
	// WithShardLease enables per-shard read leases: each group runs an
	// independent lease, so a fault in one shard lapses only that shard's
	// fast read path.
	WithShardLease = shard.WithLease
)

// Workload engine: sustained load generation with tail-latency metrics over
// any protocol endpoint and either transport. See internal/workload and the
// gqsload command.
type (
	// WorkloadConfig describes one load-generation run (protocol, transport,
	// open/closed loop, key distribution, fault injection, ...).
	WorkloadConfig = workload.Config
	// WorkloadReport is the JSON-serializable result of a run: throughput,
	// latency percentiles, a 1s throughput series and error counts.
	WorkloadReport = workload.Report
	// WorkloadProtocol selects the endpoint under load.
	WorkloadProtocol = workload.Protocol
	// WorkloadNet selects the transport under load.
	WorkloadNet = workload.NetKind
	// WorkloadDist names a key-selection distribution.
	WorkloadDist = workload.DistKind
	// LatencyHistogram is the lock-cheap log-bucketed histogram the engine
	// records into.
	LatencyHistogram = workload.Histogram
	// LatencySummary is a histogram's serializable percentile digest.
	LatencySummary = workload.LatencySummary
)

// Workload constructors and constants.
var (
	// RunWorkload executes a workload and returns its report.
	RunWorkload = workload.Run
	// NewLatencyHistogram creates an empty latency histogram.
	NewLatencyHistogram = workload.NewHistogram
	// Workload protocols and transports.
	WorkloadRegister = workload.ProtocolRegister
	WorkloadSnapshot = workload.ProtocolSnapshot
	WorkloadLattice  = workload.ProtocolLattice
	WorkloadKV       = workload.ProtocolKV
	WorkloadNetMem   = workload.NetMem
	WorkloadNetTCP   = workload.NetTCP
	// Workload key distributions.
	WorkloadDistUniform = workload.DistUniform
	WorkloadDistZipf    = workload.DistZipf
)

// Protocol constructors.
var (
	// NewRegister installs an MWMR atomic register endpoint on a node.
	NewRegister = register.New
	// NewSnapshot installs a SWMR atomic snapshot endpoint on a node.
	NewSnapshot = snapshot.New
	// NewLatticeAgreement installs a lattice agreement endpoint on a node.
	NewLatticeAgreement = lattice.NewAgreement
	// NewConsensus installs a consensus endpoint on a node.
	NewConsensus = consensus.New
	// NewReplicatedLog installs a replicated log endpoint on a node.
	NewReplicatedLog = smr.New
	// NewReplicatedKV installs a replicated key-value store on a node.
	NewReplicatedKV = smr.NewKV
	// SlotCommands expands a decided log slot value (a group-commit batch)
	// into its ordered commands.
	SlotCommands = smr.SlotCommands
	// EncodeSet / EncodeVec build lattice elements.
	EncodeSet = lattice.EncodeSet
	EncodeVec = lattice.EncodeVec
)
