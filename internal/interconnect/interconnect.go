// Package interconnect models the inter-socket fabric of a NUMA machine,
// with per-hop latency, per-link bandwidth, and packet-size accounting
// matching Table II of the C3D paper (20 ns per hop, 25.6 GB/s per link,
// 16-byte control packets and 80-byte data packets).
//
// Topologies are a static table of TopologySpecs covering the paper's two
// shapes (point-to-point for 2 sockets, ring for 4) plus generalized mesh and
// fully-connected fabrics for 2-16 sockets. A spec instantiates into a
// Layout — the directed link set plus a precomputed next-hop table — so
// routing on the message hot path is two array reads per hop regardless of
// topology, and a new topology is one table entry with no dispatch to touch.
//
// The fabric is where the NUMA bottleneck lives: every remote-memory access,
// directory lookup, forwarded block, snoop and invalidation crosses it, and
// the experiments in Figs. 8–9 (and the socket-scaling study) report
// precisely the byte counts this package accumulates.
package interconnect

import (
	"fmt"

	"c3d/internal/sim"
)

// MessageClass distinguishes small control packets from data-carrying ones
// for traffic accounting.
type MessageClass int

const (
	// Control messages are requests, acknowledgements, invalidations:
	// 16 bytes on the wire.
	Control MessageClass = iota
	// Data messages carry a 64-byte cache block plus header: 80 bytes.
	Data
)

// Bytes returns the on-wire size of the message class.
func (m MessageClass) Bytes() int {
	switch m {
	case Control:
		return ControlBytes
	case Data:
		return DataBytes
	default:
		panic(fmt.Sprintf("interconnect: unknown message class %d", int(m)))
	}
}

func (m MessageClass) String() string {
	switch m {
	case Control:
		return "control"
	case Data:
		return "data"
	default:
		return fmt.Sprintf("MessageClass(%d)", int(m))
	}
}

const (
	// ControlBytes is the wire size of a control packet (Table II).
	ControlBytes = 16
	// DataBytes is the wire size of a data packet (Table II).
	DataBytes = 80
)

// Config describes the fabric.
type Config struct {
	Sockets  int
	Topology Topology
	// HopLatency is the one-way latency per hop. Table II models 20 ns
	// (the measured ~40-50 ns socket-to-socket round trip divided between
	// the two directions).
	HopLatency sim.Cycles
	// LinkBandwidthGBs is the bandwidth of each directed link; zero or
	// negative models infinite bandwidth (Fig. 2's "inf_qpi_bw").
	LinkBandwidthGBs float64
}

// Validate checks that the topology is known and can host the socket
// count.
func (c Config) Validate() error {
	if c.Sockets < 1 {
		return fmt.Errorf("interconnect: need at least one socket, got %d", c.Sockets)
	}
	return SupportsSockets(c.Topology, c.Sockets)
}

// Stats accumulates fabric traffic.
type Stats struct {
	Messages      uint64
	ControlMsgs   uint64
	DataMsgs      uint64
	TotalBytes    uint64
	ControlBytes  uint64
	DataBytes     uint64
	HopsTraversed uint64
}

// Fabric is the inter-socket interconnect instance.
type Fabric struct {
	cfg Config
	// links is a dense matrix of directed links indexed from*Sockets+to; nil
	// entries are socket pairs with no direct link. A flat slice keeps the
	// per-hop link lookup on the message hot path free of map hashing.
	links []*sim.Resource
	// next is the topology's precomputed next-hop table (Layout.Next) and
	// hops the per-pair hop counts derived from walking it.
	next  []int
	hops  []int
	stats Stats
	// zeroLatency models the Fig. 2 "0_qpi_lat" idealisation.
	zeroLatency bool
}

// New builds a fabric from cfg. It panics when the configuration does not
// validate (an unknown topology, or a socket count the topology cannot
// host) — fabric construction happens inside machine construction, where the
// configuration has already been validated.
func New(cfg Config) *Fabric {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	spec, err := topologySpec(cfg.Topology)
	if err != nil {
		panic("interconnect: " + err.Error())
	}
	n := cfg.Sockets
	layout := spec.Build(n)
	if layout.Sockets != n || len(layout.Next) != n*n {
		panic(fmt.Sprintf("interconnect: topology %q built a malformed layout for %d sockets", cfg.Topology, n))
	}
	f := &Fabric{cfg: cfg, links: make([]*sim.Resource, n*n), next: layout.Next}
	bpc := sim.GBsToBytesPerCycle(cfg.LinkBandwidthGBs)
	for _, l := range layout.Links {
		a, b := l[0], l[1]
		f.checkSocket(a)
		f.checkSocket(b)
		if a != b && f.links[a*n+b] == nil {
			f.links[a*n+b] = sim.NewResource(fmt.Sprintf("link%d-%d", a, b), bpc)
		}
	}
	f.hops = hopTable(layout)
	// Every routed hop must have a link, or Send would dereference nil deep
	// in the hot loop; catch a malformed table entry here instead.
	for from := 0; from < n; from++ {
		for to := 0; to < n; to++ {
			if from == to {
				continue
			}
			if nh := f.next[from*n+to]; f.links[from*n+nh] == nil {
				panic(fmt.Sprintf("interconnect: topology %q routes %d->%d via missing link %d->%d",
					cfg.Topology, from, to, from, nh))
			}
		}
	}
	return f
}

// hopTable derives per-pair hop counts by walking the next-hop table,
// panicking on routes that do not terminate within Sockets-1 hops (a cycle in
// a malformed layout).
func hopTable(l Layout) []int {
	n := l.Sockets
	hops := make([]int, n*n)
	for from := 0; from < n; from++ {
		for to := 0; to < n; to++ {
			cur, count := from, 0
			for cur != to {
				cur = l.Next[cur*n+to]
				count++
				if count >= n {
					panic(fmt.Sprintf("interconnect: route %d->%d does not terminate", from, to))
				}
			}
			hops[from*n+to] = count
		}
	}
	return hops
}

// Topology returns the fabric's topology.
func (f *Fabric) Topology() Topology { return f.cfg.Topology }

// Stats returns a snapshot of the accumulated traffic.
func (f *Fabric) Stats() Stats { return f.stats }

// LinkCount returns the number of directed links the topology instantiated —
// the per-topology cost side of the latency/cost trade-off (a fully
// connected fabric has N*(N-1) links, a ring 2N).
func (f *Fabric) LinkCount() int {
	count := 0
	for _, l := range f.links {
		if l != nil {
			count++
		}
	}
	return count
}

// Diameter returns the largest hop count between any socket pair.
func (f *Fabric) Diameter() int {
	max := 0
	for _, h := range f.hops {
		if h > max {
			max = h
		}
	}
	return max
}

// ResetStats clears traffic counters and link occupancy.
func (f *Fabric) ResetStats() {
	f.stats = Stats{}
	for _, l := range f.links {
		if l != nil {
			l.Reset()
		}
	}
}

// SetZeroLatency removes the per-hop latency (Fig. 2 "0_qpi_lat").
func (f *Fabric) SetZeroLatency() { f.zeroLatency = true }

// SetInfiniteBandwidth removes link bandwidth limits (Fig. 2 "inf_qpi_bw").
func (f *Fabric) SetInfiniteBandwidth() {
	for _, l := range f.links {
		if l != nil {
			l.SetInfinite()
		}
	}
}

// Send models one message travelling from socket `from` to socket `to`
// starting at now. It returns the arrival time at the destination. Traffic
// statistics account every link the message crosses; latency is per-hop
// latency plus any queueing on each link. Sending to the local socket is
// free and generates no traffic.
func (f *Fabric) Send(now sim.Time, from, to int, class MessageClass) sim.Time {
	if from == to {
		return now
	}
	f.checkSocket(from)
	f.checkSocket(to)
	n := f.cfg.Sockets
	bytes := class.Bytes()
	f.stats.Messages++
	switch class {
	case Control:
		f.stats.ControlMsgs++
	case Data:
		f.stats.DataMsgs++
	}
	t := now
	cur := from
	for cur != to {
		next := f.next[cur*n+to]
		f.stats.HopsTraversed++
		f.stats.TotalBytes += uint64(bytes)
		switch class {
		case Control:
			f.stats.ControlBytes += uint64(bytes)
		case Data:
			f.stats.DataBytes += uint64(bytes)
		}
		link := f.links[cur*n+next]
		_, done := link.Acquire(t, bytes)
		if !f.zeroLatency {
			done = done.Add(f.cfg.HopLatency)
		}
		t = done
		cur = next
	}
	return t
}

// RoundTrip models a request/response pair: a control request from `from` to
// `to` followed by a response of the given class back to `from`. It returns
// the time the response arrives.
//
//c3dlint:allow unused(no caller outside its tests; deletion deferred to ROADMAP item 9)
func (f *Fabric) RoundTrip(now sim.Time, from, to int, response MessageClass) sim.Time {
	arrive := f.Send(now, from, to, Control)
	return f.Send(arrive, to, from, response)
}

// Broadcast sends a control message from `from` to every other socket and
// returns the time at which the last destination has received it, along with
// the per-destination arrival times indexed by socket id (the entry for
// `from` is now).
//
//c3dlint:allow unused(no caller outside its tests; deletion deferred to ROADMAP item 9)
func (f *Fabric) Broadcast(now sim.Time, from int, class MessageClass) (last sim.Time, arrivals []sim.Time) {
	arrivals = make([]sim.Time, f.cfg.Sockets)
	last = now
	for s := 0; s < f.cfg.Sockets; s++ {
		if s == from {
			arrivals[s] = now
			continue
		}
		t := f.Send(now, from, s, class)
		arrivals[s] = t
		if t > last {
			last = t
		}
	}
	return last, arrivals
}

func (f *Fabric) checkSocket(s int) {
	if s < 0 || s >= f.cfg.Sockets {
		panic(fmt.Sprintf("interconnect: socket %d out of range [0,%d)", s, f.cfg.Sockets))
	}
}
