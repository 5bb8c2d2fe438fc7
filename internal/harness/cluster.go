package harness

import (
	"time"

	"repro/internal/consensus"
	"repro/internal/failure"
	"repro/internal/graph"
	"repro/internal/lattice"
	"repro/internal/node"
	"repro/internal/qaf"
	"repro/internal/register"
	"repro/internal/snapshot"
	"repro/internal/transport"
	"repro/internal/workload"
)

// Config tunes the simulated clusters used by the experiments. The zero
// value is filled with defaults suitable for interactive runs; benches use
// faster settings.
type Config struct {
	// Seed for the network RNG.
	Seed int64
	// MinDelay/MaxDelay bound per-hop message delays.
	MinDelay, MaxDelay time.Duration
	// Tick is the periodic propagation interval of the generalized quorum
	// access functions.
	Tick time.Duration
	// ViewC is the consensus view-duration constant.
	ViewC time.Duration
	// Delay overrides the uniform delay model entirely when non-nil.
	Delay transport.DelayModel
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MinDelay == 0 {
		c.MinDelay = workload.DefaultMinDelay
	}
	if c.MaxDelay == 0 {
		c.MaxDelay = workload.DefaultMaxDelay
	}
	if c.Tick == 0 {
		c.Tick = 2 * time.Millisecond
	}
	if c.ViewC == 0 {
		c.ViewC = 20 * time.Millisecond
	}
	return c
}

func (c Config) delayModel() transport.DelayModel {
	if c.Delay != nil {
		return c.Delay
	}
	return transport.UniformDelay{Min: c.MinDelay, Max: c.MaxDelay}
}

// Cluster is a running simulated deployment: a network, one node per
// process, and optional protocol endpoints.
type Cluster struct {
	Net   *transport.MemNetwork
	Nodes []*node.Node

	Registers   []*register.Register
	Accessors   []qaf.Accessor
	Snapshots   []*snapshot.Snapshot
	Agreement   []*lattice.Agreement
	Consensus   []*consensus.Consensus
	Propagators []*qaf.Propagator
}

// Stop shuts everything down in dependency order.
func (c *Cluster) Stop() {
	for _, x := range c.Consensus {
		x.Stop()
	}
	for _, x := range c.Agreement {
		x.Stop()
	}
	for _, x := range c.Snapshots {
		x.Stop()
	}
	for _, x := range c.Registers {
		x.Stop()
	}
	for _, x := range c.Accessors {
		x.Stop()
	}
	for _, p := range c.Propagators {
		p.Stop()
	}
	for _, n := range c.Nodes {
		n.Stop()
	}
	c.Net.Close()
}

// newCluster builds the network and nodes.
func newCluster(n int, cfg Config, mode transport.Mode) *Cluster {
	cfg = cfg.withDefaults()
	net := transport.NewMem(n,
		transport.WithDelay(cfg.delayModel()),
		transport.WithSeed(cfg.Seed),
		transport.WithMode(mode),
	)
	c := &Cluster{Net: net}
	for i := 0; i < n; i++ {
		c.Nodes = append(c.Nodes, node.New(failure.Proc(i), net))
	}
	return c
}

// NewRegisterCluster deploys one register endpoint per process.
func NewRegisterCluster(n int, reads, writes []graph.BitSet, classical bool, cfg Config) *Cluster {
	cfg = cfg.withDefaults()
	c := newCluster(n, cfg, transport.ModeRoute)
	for _, nd := range c.Nodes {
		c.Registers = append(c.Registers, register.New(nd, register.Options{
			Reads: reads, Writes: writes, Tick: cfg.Tick, Classical: classical,
		}))
	}
	return c
}

// NewSnapshotCluster deploys one snapshot endpoint per process. The n
// segment registers of each endpoint share a batched propagator.
func NewSnapshotCluster(n int, reads, writes []graph.BitSet, cfg Config) *Cluster {
	cfg = cfg.withDefaults()
	c := newCluster(n, cfg, transport.ModeRoute)
	for _, nd := range c.Nodes {
		prop := qaf.NewPropagator(nd, cfg.Tick)
		c.Propagators = append(c.Propagators, prop)
		c.Snapshots = append(c.Snapshots, snapshot.New(nd, snapshot.Options{
			Reads: reads, Writes: writes, Tick: cfg.Tick, Propagator: prop,
		}))
	}
	return c
}

// NewAgreementCluster deploys one lattice-agreement endpoint per process,
// with its backing snapshot's registers sharing a batched propagator.
func NewAgreementCluster(n int, l lattice.Lattice, reads, writes []graph.BitSet, cfg Config) *Cluster {
	cfg = cfg.withDefaults()
	c := newCluster(n, cfg, transport.ModeRoute)
	for _, nd := range c.Nodes {
		prop := qaf.NewPropagator(nd, cfg.Tick)
		c.Propagators = append(c.Propagators, prop)
		c.Agreement = append(c.Agreement, lattice.NewAgreement(nd, lattice.AgreementOptions{
			Lattice: l, Reads: reads, Writes: writes, Tick: cfg.Tick, Propagator: prop,
		}))
	}
	return c
}

// NewConsensusCluster deploys one consensus endpoint per process.
func NewConsensusCluster(n int, reads, writes []graph.BitSet, cfg Config) *Cluster {
	cfg = cfg.withDefaults()
	c := newCluster(n, cfg, transport.ModeRoute)
	for _, nd := range c.Nodes {
		c.Consensus = append(c.Consensus, consensus.New(nd, consensus.Options{
			Reads: reads, Writes: writes, C: cfg.ViewC,
		}))
	}
	return c
}
