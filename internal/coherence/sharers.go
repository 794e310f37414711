package coherence

import (
	"fmt"
	"math/bits"
	"strings"
)

// SharerSet is a socket-grain sharing vector: bit i set means socket i may
// hold a copy of the block. The paper's configurations never exceed four
// sockets, but the type supports up to 64.
type SharerSet uint64

// MaxSockets is the largest socket id representable in a SharerSet.
const MaxSockets = 64

// NewSharerSet builds a set containing the given sockets.
func NewSharerSet(sockets ...int) SharerSet {
	var s SharerSet
	for _, sock := range sockets {
		s = s.Add(sock)
	}
	return s
}

// AllSockets returns the set of sockets 0 to n-1.
func AllSockets(n int) SharerSet { return SharerSet(1<<uint(n) - 1) }

func checkSocket(socket int) {
	if socket < 0 || socket >= MaxSockets {
		panic(fmt.Sprintf("coherence: socket %d out of range [0,%d)", socket, MaxSockets))
	}
}

// Add returns the set with socket included.
func (s SharerSet) Add(socket int) SharerSet {
	checkSocket(socket)
	return s | (1 << uint(socket))
}

// Remove returns the set with socket excluded.
func (s SharerSet) Remove(socket int) SharerSet {
	checkSocket(socket)
	return s &^ (1 << uint(socket))
}

// Contains reports whether socket is in the set.
//
//c3dlint:allow unused(membership test the core directory tests read sharing vectors with)
func (s SharerSet) Contains(socket int) bool {
	checkSocket(socket)
	return s&(1<<uint(socket)) != 0
}

// Count returns the number of sockets in the set.
func (s SharerSet) Count() int { return bits.OnesCount64(uint64(s)) }

// Empty reports whether the set has no members.
func (s SharerSet) Empty() bool { return s == 0 }

// Others returns the set with socket removed — the sockets that must receive
// invalidations when socket itself is the writer.
func (s SharerSet) Others(socket int) SharerSet { return s.Remove(socket) }

// ForEach calls fn for every socket in the set, in ascending order.
func (s SharerSet) ForEach(fn func(socket int)) {
	v := uint64(s)
	for v != 0 {
		i := bits.TrailingZeros64(v)
		fn(i)
		v &^= 1 << uint(i)
	}
}

// String renders the set like "{0,2,3}".
func (s SharerSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) {
		if !first {
			b.WriteByte(',')
		}
		first = false
		fmt.Fprintf(&b, "%d", i)
	})
	b.WriteByte('}')
	return b.String()
}
