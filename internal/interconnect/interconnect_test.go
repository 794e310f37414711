package interconnect

import (
	"strings"
	"testing"
	"testing/quick"

	"c3d/internal/sim"
)

// DefaultConfig returns the Table II fabric the tests build from for the
// given socket count — point-to-point for 2 sockets, ring beyond, 20 ns per
// hop, 25.6 GB/s links — or an error when no default topology hosts the count
// (fewer than 1 or more than 16 sockets).
func DefaultConfig(sockets int) (Config, error) {
	topo, err := DefaultTopology(sockets)
	if err != nil {
		return Config{}, err
	}
	return Config{
		Sockets:          sockets,
		Topology:         topo,
		HopLatency:       sim.NsToCycles(20),
		LinkBandwidthGBs: 25.6,
	}, nil
}

// hops returns the precomputed hop count between two sockets, the table Send
// routes by.
func hops(f *Fabric, from, to int) int { return f.hops[from*f.cfg.Sockets+to] }

// mustDefault builds the default fabric config for a socket count, failing
// the test on error.
func mustDefault(t *testing.T, sockets int) Config {
	t.Helper()
	cfg, err := DefaultConfig(sockets)
	if err != nil {
		t.Fatalf("DefaultConfig(%d): %v", sockets, err)
	}
	return cfg
}

// fabricFor builds a Table II fabric with an explicit topology.
func fabricFor(t *testing.T, sockets int, topo Topology) *Fabric {
	t.Helper()
	cfg := Config{Sockets: sockets, Topology: topo, HopLatency: sim.NsToCycles(20), LinkBandwidthGBs: 25.6}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("config %d sockets %s: %v", sockets, topo, err)
	}
	return New(cfg)
}

func TestDefaultConfig(t *testing.T) {
	c2 := mustDefault(t, 2)
	if c2.Topology != PointToPoint || c2.Sockets != 2 {
		t.Errorf("2-socket default %+v", c2)
	}
	c4 := mustDefault(t, 4)
	if c4.Topology != Ring || c4.Sockets != 4 {
		t.Errorf("4-socket default %+v", c4)
	}
	if c4.HopLatency != 60 {
		t.Errorf("20ns hop should be 60 cycles, got %v", c4.HopLatency)
	}
	if c16 := mustDefault(t, 16); c16.Topology != Ring {
		t.Errorf("16-socket default %+v", c16)
	}
}

// TestDefaultConfigAndValidateRejectUnsupportedShapes is the table-driven
// guard against silently producing configs for shapes no topology hosts.
func TestDefaultConfigAndValidateRejectUnsupportedShapes(t *testing.T) {
	defaults := []struct {
		sockets int
		wantErr string
	}{
		{-1, "at least one socket"},
		{0, "at least one socket"},
		{17, "no default topology"},
		{64, "no default topology"},
	}
	for _, c := range defaults {
		_, err := DefaultConfig(c.sockets)
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("DefaultConfig(%d) = %v, want error containing %q", c.sockets, err, c.wantErr)
		}
	}

	validates := []struct {
		cfg     Config
		wantErr string
	}{
		{Config{Sockets: 0, Topology: Ring}, "at least one socket"},
		{Config{Sockets: 4, Topology: "hypercube"}, "unknown topology"},
		{Config{Sockets: 4, Topology: ""}, "unknown topology"},
		{Config{Sockets: 2, Topology: Ring}, "hosts 3-16 sockets, not 2"},
		{Config{Sockets: 3, Topology: PointToPoint}, "hosts 1-2 sockets, not 3"},
		{Config{Sockets: 17, Topology: Mesh}, "hosts 2-16 sockets, not 17"},
		{Config{Sockets: 1, Topology: FullyConnected}, "hosts 2-16 sockets, not 1"},
	}
	for _, c := range validates {
		err := c.cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("Validate(%d sockets, %q) = %v, want error containing %q",
				c.cfg.Sockets, c.cfg.Topology, err, c.wantErr)
		}
	}

	// Every topology validates across its full declared range.
	for _, topo := range Topologies() {
		spec, err := topologySpec(topo)
		if err != nil {
			t.Fatal(err)
		}
		for n := spec.MinSockets; n <= spec.MaxSockets; n++ {
			if err := (Config{Sockets: n, Topology: topo}).Validate(); err != nil {
				t.Errorf("%s@%d should validate: %v", topo, n, err)
			}
		}
	}
}

func TestParseTopologyAndListing(t *testing.T) {
	want := []Topology{PointToPoint, Ring, Mesh, FullyConnected}
	got := Topologies()
	if len(got) != len(want) {
		t.Fatalf("Topologies() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Topologies() = %v, want %v", got, want)
		}
	}
	for _, topo := range want {
		parsed, err := ParseTopology(topo.String())
		if err != nil || parsed != topo {
			t.Errorf("ParseTopology(%q) = %v, %v", topo, parsed, err)
		}
	}
	const unknown = `interconnect: unknown topology "moebius" (known: [p2p ring mesh full])`
	if _, err := ParseTopology("moebius"); err == nil || err.Error() != unknown {
		t.Errorf("ParseTopology(moebius) error = %v, want %s", err, unknown)
	}
}

// TestTopologyTableInvariants checks every entry of the topology table is
// well-formed: a non-empty unique name, a Build function and sane socket
// bounds.
func TestTopologyTableInvariants(t *testing.T) {
	seen := map[Topology]bool{}
	for _, spec := range topologies {
		if spec.Name == "" {
			t.Errorf("topology table entry with an empty name: %+v", spec)
		}
		if seen[spec.Name] {
			t.Errorf("topology %q listed twice", spec.Name)
		}
		seen[spec.Name] = true
		if spec.Build == nil {
			t.Errorf("topology %q has no Build function", spec.Name)
		}
		if spec.MinSockets < 1 || spec.MaxSockets < spec.MinSockets {
			t.Errorf("topology %q has invalid socket bounds [%d,%d]", spec.Name, spec.MinSockets, spec.MaxSockets)
		}
	}
}

func TestMessageClassBytes(t *testing.T) {
	if Control.Bytes() != 16 || Data.Bytes() != 80 {
		t.Errorf("packet sizes %d/%d", Control.Bytes(), Data.Bytes())
	}
	if Control.String() != "control" || Data.String() != "data" {
		t.Error("stringers")
	}
	if PointToPoint.String() != "p2p" || Ring.String() != "ring" ||
		Mesh.String() != "mesh" || FullyConnected.String() != "full" {
		t.Error("topology stringers")
	}
}

func TestInvalidClassPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	MessageClass(42).Bytes()
}

func TestNewPanicsOnBadSocketCount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(Config{Sockets: 0, Topology: Ring})
}

func TestHopsP2P(t *testing.T) {
	f := New(mustDefault(t, 2))
	if hops(f, 0, 0) != 0 || hops(f, 0, 1) != 1 || hops(f, 1, 0) != 1 {
		t.Error("p2p hop counts wrong")
	}
}

func TestHopsRing4(t *testing.T) {
	f := New(mustDefault(t, 4))
	cases := []struct{ from, to, want int }{
		{0, 0, 0}, {0, 1, 1}, {0, 2, 2}, {0, 3, 1},
		{1, 3, 2}, {2, 0, 2}, {3, 0, 1}, {3, 1, 2},
	}
	for _, c := range cases {
		if got := hops(f, c.from, c.to); got != c.want {
			t.Errorf("Hops(%d,%d) = %d, want %d", c.from, c.to, got, c.want)
		}
	}
}

// TestHopCountsPerTopology pins hop counts for every built-in topology at the
// socket counts the scaling study sweeps (2, 4, 8, 16).
func TestHopCountsPerTopology(t *testing.T) {
	cases := []struct {
		topo           Topology
		sockets        int
		from, to, want int
	}{
		// Ring: shorter direction, so the diameter is n/2.
		{Ring, 4, 0, 2, 2},
		{Ring, 8, 0, 4, 4},
		{Ring, 8, 0, 5, 3},
		{Ring, 8, 7, 1, 2},
		{Ring, 16, 0, 8, 8},
		{Ring, 16, 15, 3, 4},
		// Mesh: Manhattan distance on the meshGrid shape.
		{Mesh, 2, 0, 1, 1},   // 1x2 chain
		{Mesh, 4, 0, 3, 2},   // 2x2: (0,0)->(1,1)
		{Mesh, 4, 1, 2, 2},   // 2x2: (0,1)->(1,0)
		{Mesh, 8, 0, 7, 4},   // 2x4: (0,0)->(1,3)
		{Mesh, 8, 3, 4, 4},   // 2x4: (0,3)->(1,0)
		{Mesh, 8, 0, 3, 3},   // 2x4: along the row
		{Mesh, 16, 0, 15, 6}, // 4x4: corner to corner
		{Mesh, 16, 0, 12, 3}, // 4x4: down one column
		// Fully connected: always one hop.
		{FullyConnected, 2, 0, 1, 1},
		{FullyConnected, 4, 0, 3, 1},
		{FullyConnected, 8, 0, 7, 1},
		{FullyConnected, 16, 0, 15, 1},
		// Point-to-point at its two supported counts.
		{PointToPoint, 2, 0, 1, 1},
		{PointToPoint, 2, 1, 0, 1},
	}
	for _, c := range cases {
		f := fabricFor(t, c.sockets, c.topo)
		if got := hops(f, c.from, c.to); got != c.want {
			t.Errorf("%s@%d Hops(%d,%d) = %d, want %d", c.topo, c.sockets, c.from, c.to, got, c.want)
		}
	}
}

// TestRoutesTerminateAndAccount walks every pair of every topology at 2, 4,
// 8 and 16 sockets: hop counts must be symmetric-range sane, and a Send must
// account exactly hops x class-bytes on the wire.
func TestRoutesTerminateAndAccount(t *testing.T) {
	for _, topo := range Topologies() {
		for _, n := range []int{2, 4, 8, 16} {
			if SupportsSockets(topo, n) != nil {
				continue
			}
			f := fabricFor(t, n, topo)
			for from := 0; from < n; from++ {
				for to := 0; to < n; to++ {
					h := hops(f, from, to)
					if from == to && h != 0 {
						t.Fatalf("%s@%d Hops(%d,%d) = %d, want 0", topo, n, from, to, h)
					}
					if from != to && (h < 1 || h >= n) {
						t.Fatalf("%s@%d Hops(%d,%d) = %d out of range", topo, n, from, to, h)
					}
					before := f.Stats().TotalBytes
					f.Send(0, from, to, Data)
					sent := f.Stats().TotalBytes - before
					if want := uint64(h * DataBytes); sent != want {
						t.Fatalf("%s@%d Send(%d,%d) accounted %d bytes, want %d", topo, n, from, to, sent, want)
					}
				}
			}
		}
	}
}

// TestLinkCounts pins the per-topology link cost: ring 2N, fully connected
// N(N-1), mesh 2*(rows*(cols-1) + cols*(rows-1)).
func TestLinkCounts(t *testing.T) {
	cases := []struct {
		topo    Topology
		sockets int
		want    int
	}{
		{PointToPoint, 2, 2},
		{Ring, 4, 8},
		{Ring, 8, 16},
		{FullyConnected, 4, 12},
		{FullyConnected, 8, 56},
		{Mesh, 4, 8},   // 2x2
		{Mesh, 8, 20},  // 2x4: 2*(2*3 + 4*1)
		{Mesh, 16, 48}, // 4x4: 2*(4*3)*2
	}
	for _, c := range cases {
		f := fabricFor(t, c.sockets, c.topo)
		if got := f.LinkCount(); got != c.want {
			t.Errorf("%s@%d LinkCount = %d, want %d", c.topo, c.sockets, got, c.want)
		}
	}
}

// TestRingTieBreaksClockwise pins the original ring routing rule: at equal
// distance the ring routes clockwise (ascending socket ids), so the 0->1
// link carries the tied 0->2 message on a 4-ring.
func TestRingTieBreaksClockwise(t *testing.T) {
	// A link that carried the tied message delays a later one-hop message
	// sent when the tied one crossed it; an idle link does not. The second
	// hop starts once the first one has arrived.
	second := New(mustDefault(t, 4)).Send(0, 0, 1, Data)
	for _, c := range []struct {
		from, to int
		at       sim.Time
		busy     bool
	}{{0, 1, 0, true}, {1, 2, second, true}, {0, 3, 0, false}, {3, 2, second, false}} {
		f := New(mustDefault(t, 4))
		f.Send(0, 0, 2, Data)
		got := f.Send(c.at, c.from, c.to, Data)
		idle := New(mustDefault(t, 4)).Send(c.at, c.from, c.to, Data)
		if (got > idle) != c.busy {
			t.Errorf("link%d-%d after the tied 0->2 message: arrival %v, idle %v; want busy=%v", c.from, c.to, got, idle, c.busy)
		}
	}
}

func TestMeshGridShapes(t *testing.T) {
	cases := []struct{ n, rows, cols int }{
		{2, 1, 2}, {4, 2, 2}, {6, 2, 3}, {8, 2, 4}, {9, 3, 3},
		{12, 3, 4}, {16, 4, 4}, {7, 1, 7}, {15, 3, 5},
	}
	for _, c := range cases {
		rows, cols := meshGrid(c.n)
		if rows != c.rows || cols != c.cols {
			t.Errorf("meshGrid(%d) = %dx%d, want %dx%d", c.n, rows, cols, c.rows, c.cols)
		}
	}
}

func TestSendLocalIsFree(t *testing.T) {
	f := New(mustDefault(t, 4))
	if got := f.Send(100, 2, 2, Data); got != 100 {
		t.Errorf("local send took time: %v", got)
	}
	if f.Stats().Messages != 0 {
		t.Error("local send should not count as traffic")
	}
}

func TestSendOneHopLatency(t *testing.T) {
	f := New(mustDefault(t, 2))
	got := f.Send(0, 0, 1, Control)
	// 16 bytes at 25.6GB/s (~8.5 B/cyc) is ~2 cycles plus 60 cycles hop.
	if got < 60 || got > 65 {
		t.Errorf("one-hop control latency = %v, want ~62", got)
	}
	st := f.Stats()
	if st.Messages != 1 || st.ControlMsgs != 1 || st.ControlBytes != 16 || st.HopsTraversed != 1 {
		t.Errorf("stats %+v", st)
	}
}

func TestSendTwoHopRing(t *testing.T) {
	f := New(mustDefault(t, 4))
	one := f.Send(0, 0, 1, Data)
	two := f.Send(0, 0, 2, Data)
	if two <= one {
		t.Errorf("2-hop message should take longer than 1-hop: %v vs %v", two, one)
	}
	// Two hops of 60 cycles each plus transfer times and queueing behind
	// the first message on the shared 0->1 link.
	if two < 120 || two > 155 {
		t.Errorf("two-hop data latency = %v, want ~120-150", two)
	}
}

func TestTrafficBytesAccountPerHop(t *testing.T) {
	f := New(mustDefault(t, 4))
	f.Send(0, 0, 2, Data) // 2 hops x 80 bytes
	if got := f.Stats().TotalBytes; got != 160 {
		t.Errorf("total bytes = %d, want 160", got)
	}
	if got := f.Stats().DataBytes; got != 160 {
		t.Errorf("data bytes = %d, want 160", got)
	}
}

func TestZeroLatency(t *testing.T) {
	f := New(mustDefault(t, 4))
	f.SetZeroLatency()
	got := f.Send(0, 0, 2, Control)
	// Only transfer occupancy remains (a few cycles).
	if got > 10 {
		t.Errorf("zero-latency send took %v", got)
	}
	if f.Stats().TotalBytes == 0 {
		t.Error("zero latency must still account traffic")
	}
}

func TestInfiniteBandwidthStillHasLatency(t *testing.T) {
	f := New(mustDefault(t, 2))
	f.SetInfiniteBandwidth()
	got := f.Send(0, 0, 1, Data)
	if got != 60 {
		t.Errorf("inf-bw one-hop latency = %v, want exactly 60", got)
	}
}

func TestLinkContention(t *testing.T) {
	f := New(mustDefault(t, 2))
	// Saturate the 0->1 link with many data messages issued at time 0.
	var last sim.Time
	for i := 0; i < 200; i++ {
		last = f.Send(0, 0, 1, Data)
	}
	single := New(mustDefault(t, 2)).Send(0, 0, 1, Data)
	if last < single*3 {
		t.Errorf("no contention visible: last=%v single=%v", last, single)
	}
}

func TestRoundTrip(t *testing.T) {
	f := New(mustDefault(t, 2))
	done := f.RoundTrip(0, 0, 1, Data)
	// Roughly two hop latencies plus transfer times.
	if done < 120 || done > 145 {
		t.Errorf("round trip = %v, want ~130", done)
	}
	st := f.Stats()
	if st.Messages != 2 || st.ControlMsgs != 1 || st.DataMsgs != 1 {
		t.Errorf("stats %+v", st)
	}
}

func TestBroadcast(t *testing.T) {
	f := New(mustDefault(t, 4))
	last, arrivals := f.Broadcast(0, 1, Control)
	if len(arrivals) != 4 {
		t.Fatalf("arrivals %v", arrivals)
	}
	if arrivals[1] != 0 {
		t.Error("source should receive its own broadcast instantly")
	}
	for s, a := range arrivals {
		if s != 1 && a == 0 {
			t.Errorf("socket %d got broadcast at time 0", s)
		}
		if a > last {
			t.Error("last is not the max arrival")
		}
	}
	if f.Stats().ControlMsgs != 3 {
		t.Errorf("broadcast should send 3 messages, sent %d", f.Stats().ControlMsgs)
	}
}

func TestResetStats(t *testing.T) {
	f := New(mustDefault(t, 4))
	f.Send(0, 0, 1, Data)
	f.ResetStats()
	if f.Stats() != (Stats{}) {
		t.Errorf("stats not cleared")
	}
	if got := f.Send(0, 0, 1, Data); got > 125 {
		t.Errorf("link occupancy survived reset: %v", got)
	}
}

func TestLinksAreDirected(t *testing.T) {
	f := New(mustDefault(t, 2))
	if f.LinkCount() != 2 {
		t.Fatalf("2-socket p2p should have 2 directed links, got %d", f.LinkCount())
	}
	// A message occupies only its own direction's link: the reverse message
	// arrives as on an idle fabric, a second forward one queues.
	first := f.Send(0, 0, 1, Data)
	if back := f.Send(0, 1, 0, Data); back != first {
		t.Errorf("reverse message arrives at %v, want %v (its link is idle)", back, first)
	}
	if again := f.Send(0, 0, 1, Data); again <= first {
		t.Errorf("second forward message arrives at %v, want after %v", again, first)
	}
}

func TestSendOutOfRangePanics(t *testing.T) {
	f := New(mustDefault(t, 2))
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f.Send(0, 0, 5, Control)
}

// Property: hop count is symmetric and bounded by N/2 on a ring.
func TestHopsSymmetryProperty(t *testing.T) {
	f := New(mustDefault(t, 4))
	fn := func(a, b uint8) bool {
		from, to := int(a%4), int(b%4)
		h := hops(f, from, to)
		return h == hops(f, to, from) && h <= 2 && (h == 0) == (from == to)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: a message never arrives before (hops * hopLatency) after issue,
// and traffic bytes equal hops * class size.
func TestSendLatencyLowerBoundProperty(t *testing.T) {
	fn := func(a, b uint8, dataMsg bool) bool {
		f := New(mustDefault(t, 4))
		from, to := int(a%4), int(b%4)
		class := Control
		if dataMsg {
			class = Data
		}
		arr := f.Send(1000, from, to, class)
		h := hops(f, from, to)
		minArrival := sim.Time(1000).Add(sim.Cycles(h) * f.cfg.HopLatency)
		if arr < minArrival {
			return false
		}
		return f.Stats().TotalBytes == uint64(h*class.Bytes())
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDiameter(t *testing.T) {
	cases := []struct {
		topo    Topology
		sockets int
		want    int
	}{
		{PointToPoint, 2, 1},
		{Ring, 8, 4},
		{Ring, 16, 8},
		{Mesh, 16, 6},
		{FullyConnected, 16, 1},
	}
	for _, c := range cases {
		if got := fabricFor(t, c.sockets, c.topo).Diameter(); got != c.want {
			t.Errorf("%s@%d Diameter = %d, want %d", c.topo, c.sockets, got, c.want)
		}
	}
}
