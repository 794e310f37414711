package dram

import (
	"testing"

	"c3d/internal/addr"
	"c3d/internal/sim"
)

// DefaultConfig returns the Table II memory parameters the tests build
// from: 50 ns, 2 channels of 12.8 GB/s.
func DefaultConfig(name string) Config {
	return Config{
		Name:                name,
		AccessLatency:       sim.NsToCycles(50),
		Channels:            2,
		ChannelBandwidthGBs: 12.8,
	}
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig("mem0")
	if cfg.AccessLatency != 150 {
		t.Errorf("50ns at 3GHz should be 150 cycles, got %v", cfg.AccessLatency)
	}
	if cfg.Channels != 2 || cfg.ChannelBandwidthGBs != 12.8 {
		t.Errorf("unexpected defaults %+v", cfg)
	}
}

func TestNewPanicsWithoutChannels(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for zero channels")
		}
	}()
	New(Config{Name: "bad", Channels: 0})
}

func TestReadLatency(t *testing.T) {
	c := New(DefaultConfig("mem"))
	done := c.Read(0, addr.Block(0))
	// 64 bytes at ~4.27 B/cycle is ~15 cycles, plus 150 cycles access.
	if done < 160 || done > 170 {
		t.Errorf("read completion = %v, want ~165", done)
	}
}

func TestWritesOccupyChannels(t *testing.T) {
	c := New(DefaultConfig("mem"))
	// Writes take channel bandwidth as reads do: a read behind a write on the
	// same channel queues, one on the other channel does not.
	w := c.Write(0, addr.Block(0))
	if r := c.Read(0, addr.Block(1)); r != w {
		t.Errorf("read on the idle channel = %v, want %v like the write", r, w)
	}
	if r := c.Read(0, addr.Block(2)); r <= w {
		t.Errorf("read behind a write on the same channel = %v, want after %v", r, w)
	}
}

func TestChannelInterleaving(t *testing.T) {
	c := New(DefaultConfig("mem"))
	// Even blocks to channel 0, odd blocks to channel 1: two accesses to
	// different channels at the same time should not queue behind each
	// other.
	d0 := c.Read(0, addr.Block(0))
	d1 := c.Read(0, addr.Block(1))
	if d0 != d1 {
		t.Errorf("accesses to distinct channels should complete together: %v vs %v", d0, d1)
	}
	// A third access to block 2 (channel 0) must queue behind block 0.
	d2 := c.Read(0, addr.Block(2))
	if d2 <= d0 {
		t.Errorf("same-channel access should queue: %v <= %v", d2, d0)
	}
}

func TestCongestionBuildsUp(t *testing.T) {
	c := New(DefaultConfig("mem"))
	var last sim.Time
	for i := 0; i < 100; i++ {
		done := c.Read(0, addr.Block(i*2)) // all on channel 0
		if done < last {
			t.Fatalf("completion times must be monotone")
		}
		last = done
	}
	// 100 back-to-back 64B transfers at 12.8GB/s must take much longer
	// than a single access.
	single := New(DefaultConfig("m2")).Read(0, addr.Block(0))
	if last < single*5 {
		t.Errorf("no congestion visible: last=%v single=%v", last, single)
	}
}

func TestInfiniteBandwidth(t *testing.T) {
	c := New(DefaultConfig("mem"))
	c.SetInfiniteBandwidth()
	var first sim.Time
	for i := 0; i < 100; i++ {
		done := c.Read(0, addr.Block(i*2))
		if i == 0 {
			first = done
		}
		if done != first {
			t.Fatalf("infinite bandwidth should remove queueing: %v vs %v", done, first)
		}
	}
	if first != sim.Time(150) {
		t.Errorf("latency should be pure access latency, got %v", first)
	}
}

func TestResetStats(t *testing.T) {
	c := New(DefaultConfig("mem"))
	c.Read(0, addr.Block(0))
	c.Write(0, addr.Block(0))
	c.ResetStats()
	// Channel occupancy must be cleared: a read at time 0 should see no
	// queueing from before the reset.
	done := c.Read(0, addr.Block(0))
	if done > 170 {
		t.Errorf("channel occupancy survived reset: %v", done)
	}
}
