package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"fsnewtop/internal/clock"
	failsignal "fsnewtop/internal/core"
	"fsnewtop/internal/fsnewtop"
	"fsnewtop/internal/group"
	"fsnewtop/internal/newtop"
	"fsnewtop/internal/orb"
	"fsnewtop/internal/sm"
	"fsnewtop/transport"
	"fsnewtop/transport/netsim"
)

// The netsim fig8 profile every member runs on.
const (
	netLatency   = 200 * time.Microsecond
	netBandwidth = 12_500_000 // bytes/s per link
	syncLatency  = 50 * time.Microsecond
	tickInterval = 5 * time.Millisecond
	// pairDelta is δ for a 5-member group, as bench.Options sizes it
	// (members × 500ms): the compare deadline is a timeout, not a wait,
	// so it costs failure-free runs nothing.
	pairDelta = 2500 * time.Millisecond
	groupName = "pb"
)

// clusterConfig selects what one cluster is built as.
type clusterConfig struct {
	members int
	fs      bool
	batch   bool
	seed    int64
	// suspectAfter is crash NewTOP's ping-suspicion threshold; zero keeps
	// the protocol default.
	suspectAfter time.Duration
	meter        *meter // nil: members use the bare network
}

// cluster is one deployment: a network and its members.
type cluster struct {
	cfg   clusterConfig
	net   *netsim.Network
	fab   *fsnewtop.Fabric // nil for crash NewTOP
	names []string
	fs    []*fsnewtop.NSO  // FS members, by index (nil for NewTOP)
	nt    []*newtop.NSO    // NewTOP members, by index (nil for FS)
	svcs  []newtop.Service // every member, by index
	// crashed marks NewTOP members whose stack fail already closed; the
	// queue sampler reads it concurrently.
	crashed []atomic.Bool
}

// buildCluster deploys cfg.members members over a fresh netsim network,
// each from its layer's public constructor. Nothing is joined yet.
func buildCluster(cfg clusterConfig) (*cluster, error) {
	clk := clock.NewReal()
	nopts := []netsim.Option{
		netsim.WithSeed(cfg.seed),
		netsim.WithDefaultProfile(transport.Profile{
			Latency:        transport.Fixed(netLatency),
			BytesPerSecond: netBandwidth,
		}),
	}
	if cfg.batch {
		nopts = append(nopts, netsim.WithCoalescing())
	}
	c := &cluster{cfg: cfg, net: netsim.New(clk, nopts...), crashed: make([]atomic.Bool, cfg.members)}
	var tr transport.Transport = c.net
	if cfg.meter != nil {
		tr = &meteredNet{inner: c.net, m: cfg.meter}
	}
	for i := 0; i < cfg.members; i++ {
		c.names = append(c.names, fmt.Sprintf("m%02d", i))
	}

	if !cfg.fs {
		naming := orb.NewNaming()
		for _, name := range c.names {
			nso, err := newtop.New(newtop.Config{
				Name:         name,
				Net:          tr,
				Naming:       naming,
				Clock:        clk,
				TickInterval: tickInterval,
				GC: group.Config{
					SuspectAfter: cfg.suspectAfter,
					ResendAfter:  50 * time.Millisecond,
				},
			})
			if err != nil {
				c.close()
				return nil, err
			}
			c.nt = append(c.nt, nso)
			c.svcs = append(c.svcs, nso)
		}
		return c, nil
	}

	c.fab = fsnewtop.NewFabric(tr, clk)
	lan := &transport.Profile{Latency: transport.Fixed(syncLatency)}
	for _, name := range c.names {
		var peers []string
		for _, p := range c.names {
			if p != name {
				peers = append(peers, p)
			}
		}
		fcfg := fsnewtop.Config{
			Name:         name,
			Fabric:       c.fab,
			Peers:        peers,
			Delta:        pairDelta,
			TickInterval: tickInterval,
			SyncLink:     lan,
			GC:           group.Config{ResendAfter: 50 * time.Millisecond},
		}
		if cfg.batch {
			fcfg.Batch = fsnewtop.BatchConfig{Enabled: true}
			fcfg.DigestCompareMin = 1 << 10
		}
		if cfg.meter != nil {
			name := name
			fcfg.WrapMachine = func(role failsignal.Role, m sm.Machine) sm.Machine {
				return cfg.meter.wrapMachine(name, role, m)
			}
		}
		nso, err := fsnewtop.New(fcfg)
		if err != nil {
			c.close()
			return nil, err
		}
		c.fs = append(c.fs, nso)
		c.svcs = append(c.svcs, nso)
	}
	return c, nil
}

// joinAll submits the static join at every member.
func (c *cluster) joinAll() error {
	for _, s := range c.svcs {
		if err := s.Join(groupName, c.names); err != nil {
			return fmt.Errorf("join %s: %w", s.Name(), err)
		}
	}
	return nil
}

// close shuts every member and then the network down.
func (c *cluster) close() {
	for i, s := range c.svcs {
		if !c.crashed[i].Load() {
			s.Close()
		}
	}
	c.net.Close()
}

// replicas returns every FS replica (leader and follower of each pair).
func (c *cluster) replicas() []*failsignal.Replica {
	var rs []*failsignal.Replica
	for _, n := range c.fs {
		rs = append(rs, n.Pair().Leader, n.Pair().Follower)
	}
	return rs
}

// fail injects the workload's fault into member i: a fail-signal from an
// FS pair's leader (failure mode fs2), or a crash of a NewTOP member's
// whole stack, which only its peers' ping suspector can detect.
func (c *cluster) fail(i int) {
	if c.cfg.fs {
		c.fs[i].Pair().Leader.InjectFailSignal()
		return
	}
	c.crashed[i].Store(true)
	c.nt[i].Close()
}
