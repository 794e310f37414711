package core

import (
	"strings"
	"testing"
)

func TestProtocolModelInitial(t *testing.T) {
	m := NewProtocolModel(ProtocolConfig{Sockets: 3, LoadsPerCore: 1, StoresPerCore: 1})
	init := m.Initial()
	if len(init) != 1 {
		t.Fatalf("Initial returned %d states, want 1", len(init))
	}
	if !m.Quiescent(init[0]) {
		t.Error("the initial state should be quiescent")
	}
	if err := m.Check(init[0]); err != nil {
		t.Errorf("initial state violates invariants: %v", err)
	}
	if !strings.Contains(m.Name(), "c3d") {
		t.Errorf("Name = %q, want it to identify the protocol", m.Name())
	}
}

func TestProtocolStateEncodingRoundTrip(t *testing.T) {
	m := NewProtocolModel(ProtocolConfig{Sockets: 2, LoadsPerCore: 1, StoresPerCore: 1})
	init := m.Initial()[0]
	// Take a couple of steps and re-encode each successor: encode(decode(s))
	// must be the identity, otherwise the visited-set deduplication breaks.
	states := []string{init}
	for depth := 0; depth < 3; depth++ {
		var next []string
		for _, s := range states {
			succ, err := m.Successors(s)
			if err != nil {
				t.Fatalf("Successors: %v", err)
			}
			next = append(next, succ...)
		}
		for _, s := range next {
			if re := encodeState(decodeState(s)); re != s {
				t.Fatalf("encoding not canonical:\n  in: %s\n out: %s", s, re)
			}
		}
		states = next
		if len(states) == 0 {
			break
		}
	}
}

func TestProtocolSuccessorsFromInitial(t *testing.T) {
	m := NewProtocolModel(ProtocolConfig{Sockets: 2, LoadsPerCore: 1, StoresPerCore: 1})
	succ, err := m.Successors(m.Initial()[0])
	if err != nil {
		t.Fatalf("Successors: %v", err)
	}
	// From the initial state each of the 2 sockets can issue a load or a
	// store: 4 successors, no evictions possible yet.
	if len(succ) != 4 {
		t.Errorf("initial state has %d successors, want 4", len(succ))
	}
}

func TestProtocolSmallConfigExploresClean(t *testing.T) {
	// A tiny exhaustive exploration inline (the full search lives in
	// internal/mc): single socket, one load + one store must terminate
	// without violations and reach quiescent states.
	m := NewProtocolModel(ProtocolConfig{Sockets: 1, LoadsPerCore: 1, StoresPerCore: 1})
	visited := map[string]bool{}
	frontier := m.Initial()
	quiescentSeen := 0
	for len(frontier) > 0 {
		next := []string{}
		for _, s := range frontier {
			if visited[s] {
				continue
			}
			visited[s] = true
			if err := m.Check(s); err != nil {
				t.Fatalf("invariant violation: %v", err)
			}
			succ, err := m.Successors(s)
			if err != nil {
				t.Fatalf("transition violation: %v", err)
			}
			if len(succ) == 0 {
				if !m.Quiescent(s) {
					t.Fatalf("deadlock: non-quiescent state has no successors: %s", s)
				}
				quiescentSeen++
			}
			next = append(next, succ...)
		}
		frontier = next
	}
	if quiescentSeen == 0 {
		t.Error("exploration never reached a terminal quiescent state")
	}
	if len(visited) < 5 {
		t.Errorf("explored only %d states; the model looks degenerate", len(visited))
	}
}

func TestSuccessorsAppendMatchesSuccessors(t *testing.T) {
	// SuccessorsAppend with an aggressively reused buffer must agree with
	// Successors state-for-state across a few BFS levels (the model checker
	// reuses one buffer per worker for the whole search).
	m := NewProtocolModel(ProtocolConfig{Sockets: 2, LoadsPerCore: 1, StoresPerCore: 1})
	var buf []string
	frontier := m.Initial()
	checked := 0
	for depth := 0; depth < 6; depth++ {
		var next []string
		for _, s := range frontier {
			fresh, err1 := m.Successors(s)
			var err2 error
			buf, err2 = m.SuccessorsAppend(s, buf[:0])
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("error mismatch for %q: %v vs %v", FormatState(s), err1, err2)
			}
			if len(fresh) != len(buf) {
				t.Fatalf("successor count mismatch: %d vs %d", len(fresh), len(buf))
			}
			for i := range fresh {
				if fresh[i] != buf[i] {
					t.Fatalf("successor %d differs at depth %d:\n fresh: %s\nappend: %s",
						i, depth, FormatState(fresh[i]), FormatState(buf[i]))
				}
			}
			checked++
			next = append(next, fresh...)
		}
		frontier = next
	}
	if checked < 100 {
		t.Errorf("only %d states compared; expansion looks degenerate", checked)
	}
}

func TestSuccessorsAppendPreservesPrefix(t *testing.T) {
	m := NewProtocolModel(ProtocolConfig{Sockets: 2, LoadsPerCore: 1, StoresPerCore: 1})
	init := m.Initial()[0]
	out, err := m.SuccessorsAppend(init, []string{"sentinel"})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) < 2 || out[0] != "sentinel" {
		t.Errorf("SuccessorsAppend must append after the existing prefix, got %d entries, first %q", len(out), out[0])
	}
}

func TestProtocolModelRejectsBadSocketCount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("socket count 0 should panic")
		}
	}()
	NewProtocolModel(ProtocolConfig{Sockets: 0})
}

func TestProtocolStateNames(t *testing.T) {
	wantLLC := []string{"I", "S", "M", "IS_D", "IM_AD", "MI_A", "II_A"}
	for i, want := range wantLLC {
		if got := llcState(i).String(); got != want {
			t.Errorf("llcState(%d) = %q, want %q", i, got, want)
		}
	}
	if dcI.String() != "I" || dcV.String() != "V" {
		t.Error("unexpected DRAM-cache state names")
	}
	for k := msgKind(0); k < numMsgKinds; k++ {
		if k.String() == "" {
			t.Errorf("message kind %d has no name", k)
		}
	}
}

// TestFormatStateRoundTrips smoke-tests the violation-report pretty-printer
// on a real reachable state.
func TestFormatState(t *testing.T) {
	m := NewProtocolModel(ProtocolConfig{Sockets: 2, LoadsPerCore: 1, StoresPerCore: 1})
	succ, err := m.Successors(m.Initial()[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range append(m.Initial(), succ...) {
		out := FormatState(s)
		if !strings.Contains(out, "dir{") || !strings.Contains(out, "socket 0") {
			t.Fatalf("FormatState output looks wrong:\n%s", out)
		}
	}
}

// BenchmarkStateCodec measures the model checker's inner loop currency: the
// canonical encode/decode round trip of a mid-exploration state with
// messages in flight.
func BenchmarkStateCodec(b *testing.B) {
	m := NewProtocolModel(ProtocolConfig{Sockets: 3, LoadsPerCore: 1, StoresPerCore: 1})
	// Walk a few levels deep so the benchmarked state has in-flight messages.
	state := m.Initial()[0]
	for i := 0; i < 3; i++ {
		succ, err := m.Successors(state)
		if err != nil || len(succ) == 0 {
			b.Fatalf("setup: %v (%d successors)", err, len(succ))
		}
		state = succ[len(succ)-1]
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if re := encodeState(decodeState(state)); len(re) != len(state) {
			b.Fatal("round trip changed length")
		}
	}
}

// BenchmarkSuccessors measures full successor generation, the other half of
// the exploration hot path.
func BenchmarkSuccessors(b *testing.B) {
	m := NewProtocolModel(ProtocolConfig{Sockets: 3, LoadsPerCore: 1, StoresPerCore: 1})
	state := m.Initial()[0]
	for i := 0; i < 2; i++ {
		succ, err := m.Successors(state)
		if err != nil || len(succ) == 0 {
			b.Fatalf("setup: %v", err)
		}
		state = succ[0]
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Successors(state); err != nil {
			b.Fatal(err)
		}
	}
}
