package coherence

import (
	"testing"
	"testing/quick"
)

func TestSharerSetBasics(t *testing.T) {
	var s SharerSet
	if !s.Empty() {
		t.Fatal("zero SharerSet should be empty")
	}
	s = s.Add(0).Add(2).Add(3)
	if s.Count() != 3 {
		t.Fatalf("Count = %d, want 3", s.Count())
	}
	for _, tc := range []struct {
		socket int
		want   bool
	}{{0, true}, {1, false}, {2, true}, {3, true}} {
		if got := s.Contains(tc.socket); got != tc.want {
			t.Errorf("Contains(%d) = %v, want %v", tc.socket, got, tc.want)
		}
	}
	s = s.Remove(2)
	if s.Contains(2) {
		t.Error("Remove(2) did not remove socket 2")
	}
	if s.Count() != 2 {
		t.Errorf("Count after remove = %d, want 2", s.Count())
	}
}

func TestSharerSetAddIdempotent(t *testing.T) {
	s := NewSharerSet(1)
	if s.Add(1) != s {
		t.Error("adding an existing socket should not change the set")
	}
	if s.Remove(3) != s {
		t.Error("removing an absent socket should not change the set")
	}
}

func TestSharerSetOthers(t *testing.T) {
	s := NewSharerSet(0, 1, 2, 3)
	o := s.Others(1)
	if o.Contains(1) {
		t.Error("Others(1) should not contain 1")
	}
	if o.Count() != 3 {
		t.Errorf("Others(1).Count() = %d, want 3", o.Count())
	}
	// Others of a non-member leaves the set unchanged.
	if NewSharerSet(0, 2).Others(3) != NewSharerSet(0, 2) {
		t.Error("Others of a non-member changed the set")
	}
}

func TestSharerSetString(t *testing.T) {
	if got := NewSharerSet(0, 3).String(); got != "{0,3}" {
		t.Errorf("String() = %q, want %q", got, "{0,3}")
	}
	if got := SharerSet(0).String(); got != "{}" {
		t.Errorf("empty String() = %q, want %q", got, "{}")
	}
}

func TestSharerSetPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Add(-1) should panic")
		}
	}()
	SharerSet(0).Add(-1)
}

// Property: Add then Contains is always true, and Count never exceeds the
// number of distinct sockets added.
func TestSharerSetProperties(t *testing.T) {
	f := func(socketsRaw []uint8) bool {
		var s SharerSet
		distinct := map[int]bool{}
		for _, raw := range socketsRaw {
			sock := int(raw % MaxSockets)
			s = s.Add(sock)
			distinct[sock] = true
			if !s.Contains(sock) {
				return false
			}
		}
		return s.Count() == len(distinct)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Remove undoes Add for sockets that were not previously present.
func TestSharerSetAddRemoveProperty(t *testing.T) {
	f := func(base uint64, sockRaw uint8) bool {
		sock := int(sockRaw % MaxSockets)
		s := SharerSet(base).Remove(sock) // ensure absent
		return s.Add(sock).Remove(sock) == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
