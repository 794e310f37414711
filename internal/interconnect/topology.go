package interconnect

import "fmt"

// Topology names a fabric topology. The value is the key of the topology
// table: comparing, printing and parsing all go through the same string
// (machine configs, CLI flags, the daemon's JobSpec).
type Topology string

// The built-in topologies.
const (
	// PointToPoint directly connects the two sockets of the paper's 2-socket
	// configuration (every pair is one hop apart).
	PointToPoint Topology = "p2p"
	// Ring connects socket i to sockets (i±1) mod N, mirroring commodity
	// AMD/Intel designs; the paper's 4-socket configuration uses it.
	Ring Topology = "ring"
	// Mesh arranges the sockets in a 2D grid with links between grid
	// neighbours and deterministic XY routing (column first, then row).
	Mesh Topology = "mesh"
	// FullyConnected links every socket pair directly: one hop everywhere,
	// at the cost of N*(N-1) directed links.
	FullyConnected Topology = "full"
)

func (t Topology) String() string { return string(t) }

// Layout is a topology instantiated for a concrete socket count: the directed
// link set plus the precomputed next-hop table the fabric walks on every
// message. Layouts are built once at fabric construction, so routing on the
// hot path is two array reads per hop.
type Layout struct {
	// Sockets is the socket count the layout was built for.
	Sockets int
	// Links lists every directed link as a {from, to} pair. Order does not
	// matter (the fabric stores links in a dense matrix); duplicates are
	// ignored.
	Links [][2]int
	// Next is the dense next-hop table: Next[from*Sockets+to] is the socket
	// a message at `from` heading for `to` crosses next (Next[i*Sockets+i]
	// is i). Every (from, Next[from*Sockets+to]) pair must be a link.
	Next []int
}

// TopologySpec describes one topology: its name, the socket counts it can
// host, and how to build a Layout for one of them.
type TopologySpec struct {
	// Name is the table key ("p2p", "ring", ...).
	Name Topology
	// MinSockets and MaxSockets bound the socket counts the topology hosts.
	MinSockets, MaxSockets int
	// Build returns the layout for a socket count within the bounds. It is
	// only called with supported counts.
	Build func(sockets int) Layout
}

// topologies is the topology table. Its order is the listing order of
// Topologies(). Adding a topology is one entry here: ParseTopology,
// machine.Config.Topology, c3dsim -topology and the daemon JobSpec all read
// this table, and the fabric drives every entry through the same
// precomputed next-hop tables.
var topologies = []TopologySpec{
	// Direct link between two sockets (the paper's 2-socket shape).
	{Name: PointToPoint, MinSockets: 1, MaxSockets: 2, Build: buildFullyConnected},
	// Bidirectional ring, shorter direction wins, ties clockwise (the
	// paper's 4-socket shape).
	{Name: Ring, MinSockets: 3, MaxSockets: maxFabricSockets, Build: buildRing},
	// 2D mesh with XY routing (column first, then row).
	{Name: Mesh, MinSockets: 2, MaxSockets: maxFabricSockets, Build: buildMesh},
	// Every socket pair directly linked: one hop everywhere.
	{Name: FullyConnected, MinSockets: 2, MaxSockets: maxFabricSockets, Build: buildFullyConnected},
}

// topologySpec returns the table entry for t.
func topologySpec(t Topology) (TopologySpec, error) {
	for _, spec := range topologies {
		if spec.Name == t {
			return spec, nil
		}
	}
	return TopologySpec{}, fmt.Errorf("unknown topology %q (known: %v)", string(t), Topologies())
}

// ParseTopology converts a topology name back into a Topology, mirroring
// machine.ParseDesign: only names in the topology table parse.
func ParseTopology(s string) (Topology, error) {
	if _, err := topologySpec(Topology(s)); err != nil {
		return "", fmt.Errorf("interconnect: %w", err)
	}
	return Topology(s), nil
}

// Topologies returns every topology in table order.
func Topologies() []Topology {
	out := make([]Topology, len(topologies))
	for i, spec := range topologies {
		out[i] = spec.Name
	}
	return out
}

// SupportsSockets reports whether the topology can host the given socket
// count, with a descriptive error when it cannot.
func SupportsSockets(t Topology, sockets int) error {
	spec, err := topologySpec(t)
	if err != nil {
		return fmt.Errorf("interconnect: %w", err)
	}
	if sockets < spec.MinSockets || sockets > spec.MaxSockets {
		return fmt.Errorf("interconnect: topology %q hosts %d-%d sockets, not %d",
			string(t), spec.MinSockets, spec.MaxSockets, sockets)
	}
	return nil
}

// DefaultTopology returns the topology a machine of the given socket count
// uses when none is selected: point-to-point for one or two sockets (the
// paper's 2-socket shape) and a ring beyond that (the paper's 4-socket
// shape), up to the 16-socket ceiling of the built-in fabrics.
func DefaultTopology(sockets int) (Topology, error) {
	switch {
	case sockets < 1:
		return "", fmt.Errorf("interconnect: need at least one socket, got %d", sockets)
	case sockets <= 2:
		return PointToPoint, nil
	case sockets <= maxFabricSockets:
		return Ring, nil
	default:
		return "", fmt.Errorf("interconnect: no default topology hosts %d sockets (max %d); pick one explicitly",
			sockets, maxFabricSockets)
	}
}

// maxFabricSockets is the ceiling of the built-in topologies. It bounds the
// precomputed route tables, not anything fundamental: a new table entry may
// set its own MaxSockets.
const maxFabricSockets = 16

// --- layout builders ---

// buildFullyConnected links every pair directly; the next hop is always the
// destination. It also serves the degenerate 1- and 2-socket point-to-point
// shapes.
func buildFullyConnected(n int) Layout {
	l := Layout{Sockets: n, Next: make([]int, n*n)}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			l.Next[i*n+j] = j
			if i != j {
				l.Links = append(l.Links, [2]int{i, j})
			}
		}
	}
	return l
}

// buildRing links socket i to (i±1) mod n and routes along the shorter
// direction, breaking ties clockwise — exactly the walk the original
// fabric performed, so ring results are bit-identical to it.
func buildRing(n int) Layout {
	l := Layout{Sockets: n, Next: make([]int, n*n)}
	for i := 0; i < n; i++ {
		l.Links = append(l.Links, [2]int{i, (i + 1) % n}, [2]int{(i + 1) % n, i})
	}
	for from := 0; from < n; from++ {
		for to := 0; to < n; to++ {
			switch {
			case from == to:
				l.Next[from*n+to] = from
			default:
				cw := (to - from + n) % n
				ccw := (from - to + n) % n
				if ccw < cw {
					l.Next[from*n+to] = (from + n - 1) % n
				} else {
					l.Next[from*n+to] = (from + 1) % n
				}
			}
		}
	}
	return l
}

// meshGrid picks the mesh's shape for n sockets: the most square exact
// factorisation rows x cols with rows <= cols. Exact factorisation keeps the
// grid perfect (no missing corner), which keeps XY routing valid for every
// pair; prime counts degenerate to a 1 x n chain.
func meshGrid(n int) (rows, cols int) {
	rows = 1
	for r := 2; r*r <= n; r++ {
		if n%r == 0 {
			rows = r
		}
	}
	return rows, n / rows
}

// buildMesh lays the sockets out row-major on the meshGrid shape, links grid
// neighbours, and routes XY: first along the row to the destination column,
// then along the column. XY routing is deterministic and deadlock-free, and
// the hop count is the Manhattan distance.
func buildMesh(n int) Layout {
	rows, cols := meshGrid(n)
	l := Layout{Sockets: n, Next: make([]int, n*n)}
	for s := 0; s < n; s++ {
		r, c := s/cols, s%cols
		if c+1 < cols {
			l.Links = append(l.Links, [2]int{s, s + 1}, [2]int{s + 1, s})
		}
		if r+1 < rows {
			l.Links = append(l.Links, [2]int{s, s + cols}, [2]int{s + cols, s})
		}
	}
	for from := 0; from < n; from++ {
		fr, fc := from/cols, from%cols
		for to := 0; to < n; to++ {
			_, tc := to/cols, to%cols
			switch {
			case from == to:
				l.Next[from*n+to] = from
			case fc < tc:
				l.Next[from*n+to] = from + 1
			case fc > tc:
				l.Next[from*n+to] = from - 1
			case fr < to/cols:
				l.Next[from*n+to] = from + cols
			default:
				l.Next[from*n+to] = from - cols
			}
		}
	}
	return l
}
