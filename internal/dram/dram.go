// Package dram models a socket's main-memory subsystem: a memory controller
// fronting a small number of DDR channels, each with a fixed access latency
// and a bandwidth-regulated data bus. Parameters default to Table II of the
// C3D paper (50 ns access latency, two DDR3-1600 channels of 12.8 GB/s per
// socket).
//
// The model is deliberately simple — the paper's own simulator models memory
// as latency plus channel occupancy, and Fig. 2 shows DRAM bandwidth is not
// the NUMA bottleneck — but it is sufficient to expose controller congestion
// when a design funnels a disproportionate amount of traffic at one socket.
package dram

import (
	"fmt"

	"c3d/internal/addr"
	"c3d/internal/sim"
)

// Config describes one socket's memory subsystem.
type Config struct {
	// Name identifies the controller in diagnostics, e.g. "mem0".
	Name string
	// AccessLatency is the row access latency (queueing excluded).
	AccessLatency sim.Cycles
	// Channels is the number of independent DDR channels.
	Channels int
	// ChannelBandwidthGBs is the peak bandwidth of each channel in GB/s.
	// Zero or negative means infinite bandwidth (the Fig. 2 idealisation).
	ChannelBandwidthGBs float64
}

// Controller is one socket's memory controller.
type Controller struct {
	cfg      Config
	channels []*sim.Resource
}

// New builds a controller from cfg. It panics on a non-positive channel
// count.
func New(cfg Config) *Controller {
	if cfg.Channels <= 0 {
		panic(fmt.Sprintf("dram %s: need at least one channel", cfg.Name))
	}
	c := &Controller{cfg: cfg}
	for i := 0; i < cfg.Channels; i++ {
		c.channels = append(c.channels, sim.NewResource(
			fmt.Sprintf("%s.ch%d", cfg.Name, i),
			sim.GBsToBytesPerCycle(cfg.ChannelBandwidthGBs)))
	}
	return c
}

// ResetStats is the controller's warm-up boundary reset. The controller
// keeps no counters, so it clears channel occupancy only.
func (c *Controller) ResetStats() {
	for _, ch := range c.channels {
		ch.Reset()
	}
}

// SetInfiniteBandwidth switches every channel to infinite bandwidth. Used by
// the Fig. 2 "inf_mem_bw" configuration.
func (c *Controller) SetInfiniteBandwidth() {
	for _, ch := range c.channels {
		ch.SetInfinite()
	}
}

// channelOf maps a block to a channel by low-order block-interleaving, the
// standard commodity-controller policy.
func (c *Controller) channelOf(b addr.Block) *sim.Resource {
	return c.channels[int(uint64(b)%uint64(len(c.channels)))]
}

// Read performs a block read beginning at now and returns the completion
// time: queueing delay on the block's channel, then the access latency, then
// the 64 B transfer.
func (c *Controller) Read(now sim.Time, b addr.Block) sim.Time {
	ch := c.channelOf(b)
	_, done := ch.Acquire(now, addr.BlockBytes)
	return done.Add(c.cfg.AccessLatency)
}

// Write performs a block write beginning at now and returns the completion
// time. Writes occupy channel bandwidth like reads; callers decide whether
// the returned latency is on the critical path (it normally is not, because
// stores drain from the store queue).
func (c *Controller) Write(now sim.Time, b addr.Block) sim.Time {
	ch := c.channelOf(b)
	_, done := ch.Acquire(now, addr.BlockBytes)
	return done.Add(c.cfg.AccessLatency)
}
