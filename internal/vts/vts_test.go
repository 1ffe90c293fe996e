package vts

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/fabric"
	"repro/internal/tstore"
)

func TestVTSCovers(t *testing.T) {
	cases := []struct {
		v, o VTS
		want bool
	}{
		{VTS{4, 12}, VTS{4, 12}, true},
		{VTS{5, 12}, VTS{4, 12}, true},
		{VTS{4, 11}, VTS{4, 12}, false},
		{VTS{4}, VTS{4, 12}, false},
		{VTS{4, 12, 1}, VTS{4, 12}, true},
		{nil, nil, true},
	}
	for _, c := range cases {
		if got := c.v.Covers(c.o); got != c.want {
			t.Errorf("%v.Covers(%v) = %v, want %v", c.v, c.o, got, c.want)
		}
	}
}

func TestVTSCloneIndependent(t *testing.T) {
	v := VTS{1, 2}
	c := v.Clone()
	c[0] = 99
	if v[0] != 1 {
		t.Error("Clone aliases original")
	}
}

func TestVTSString(t *testing.T) {
	if got := (VTS{4, 12}).String(); got != "[S0=4,S1=12]" {
		t.Errorf("String = %q", got)
	}
}

func TestNewCoordinatorValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("0 nodes did not panic")
		}
	}()
	NewCoordinator(nil, 0, 1, 1)
}

func TestStableVTSIsMin(t *testing.T) {
	c := NewCoordinator(nil, 3, 2, 1)
	c.OnBatchInserted(0, 0, 4)
	c.OnBatchInserted(1, 0, 5)
	c.OnBatchInserted(2, 0, 4)
	c.OnBatchInserted(0, 1, 12)
	c.OnBatchInserted(1, 1, 12)
	c.OnBatchInserted(2, 1, 12)
	got := c.StableVTS()
	if got[0] != 4 || got[1] != 12 {
		t.Errorf("StableVTS = %v, want [4 12]", got)
	}
	if lv := c.LocalVTS(1); lv[0] != 5 {
		t.Errorf("LocalVTS(1) = %v", lv)
	}
}

func TestBatchRegressionPanics(t *testing.T) {
	c := NewCoordinator(nil, 1, 1, 1)
	c.OnBatchInserted(0, 0, 5)
	defer func() {
		if recover() == nil {
			t.Error("regression did not panic")
		}
	}()
	c.OnBatchInserted(0, 0, 4)
}

func TestSNForBatchArithmeticPlans(t *testing.T) {
	c := NewCoordinator(nil, 2, 2, 1)
	// Interval 1: SN k covers batch k of every stream.
	if sn := c.SNForBatch(0, 1); sn != 1 {
		t.Errorf("SN(S0,b1) = %d, want 1", sn)
	}
	if sn := c.SNForBatch(1, 1); sn != 1 {
		t.Errorf("SN(S1,b1) = %d, want 1", sn)
	}
	if sn := c.SNForBatch(0, 3); sn != 3 {
		t.Errorf("SN(S0,b3) = %d, want 3", sn)
	}
	// Asking again is stable.
	if sn := c.SNForBatch(0, 3); sn != 3 {
		t.Errorf("repeat SN(S0,b3) = %d", sn)
	}
}

func TestSNForBatchInterval(t *testing.T) {
	c := NewCoordinator(nil, 1, 1, 3)
	for b, want := range map[tstore.BatchID]uint32{1: 1, 3: 1, 4: 2, 6: 2, 7: 3} {
		if sn := c.SNForBatch(0, b); sn != want {
			t.Errorf("SN(b%d) = %d, want %d", b, sn, want)
		}
	}
}

func TestStableSNAdvancesWhenAllNodesReach(t *testing.T) {
	c := NewCoordinator(nil, 2, 2, 1)
	// Plan 1 targets [1,1].
	c.SNForBatch(0, 1)
	c.OnBatchInserted(0, 0, 1)
	c.OnBatchInserted(0, 1, 1)
	if sn := c.StableSN(); sn != 0 {
		t.Errorf("StableSN = %d before node 1 caught up", sn)
	}
	c.OnBatchInserted(1, 0, 1)
	if sn := c.StableSN(); sn != 0 {
		t.Errorf("StableSN = %d before stream 1 on node 1", sn)
	}
	c.OnBatchInserted(1, 1, 1)
	if sn := c.StableSN(); sn != 1 {
		t.Errorf("StableSN = %d, want 1", sn)
	}
}

func TestStableSNSkipsAhead(t *testing.T) {
	c := NewCoordinator(nil, 1, 1, 1)
	c.SNForBatch(0, 5) // publishes plans 1..5
	c.OnBatchInserted(0, 0, 5)
	if sn := c.StableSN(); sn != 5 {
		t.Errorf("StableSN = %d, want 5", sn)
	}
}

func TestPlanRetentionBounded(t *testing.T) {
	c := NewCoordinator(nil, 1, 1, 1)
	for b := tstore.BatchID(1); b <= 50; b++ {
		c.SNForBatch(0, b)
		c.OnBatchInserted(0, 0, b)
	}
	if n := len(c.RetainedPlans()); n > 2 {
		t.Errorf("retained %d plans, want ≤ 2 (one using, one inserting)", n)
	}
}

func TestAddStreamTransparentToSN(t *testing.T) {
	c := NewCoordinator(nil, 1, 1, 1)
	sn3 := c.SNForBatch(0, 3)
	s1 := c.AddStream()
	if s1 != 1 {
		t.Errorf("AddStream = %d, want 1", s1)
	}
	// Existing plans keep their SNs.
	if again := c.SNForBatch(0, 3); again != sn3 {
		t.Errorf("SN changed after AddStream: %d vs %d", again, sn3)
	}
	// New stream gets SNs from future plans.
	sn := c.SNForBatch(s1, 1)
	if sn <= sn3 {
		t.Errorf("new stream's first batch SN = %d, want > %d", sn, sn3)
	}
	// Stable VTS gains a slot.
	if len(c.StableVTS()) != 2 {
		t.Errorf("StableVTS = %v", c.StableVTS())
	}
}

func TestWindowReady(t *testing.T) {
	c := NewCoordinator(nil, 2, 2, 1)
	for n := fabric.NodeID(0); n < 2; n++ {
		c.OnBatchInserted(n, 0, 4)
		c.OnBatchInserted(n, 1, 12)
	}
	if !c.WindowReady([]StreamID{0, 1}, []tstore.BatchID{4, 12}) {
		t.Error("window [4,12] should be ready")
	}
	// Fig. 10: QC needs batch 5 of S0, not yet stable.
	if c.WindowReady([]StreamID{0, 1}, []tstore.BatchID{5, 12}) {
		t.Error("window [5,12] should not be ready")
	}
	c.OnBatchInserted(0, 0, 5)
	if c.WindowReady([]StreamID{0}, []tstore.BatchID{5}) {
		t.Error("one node at 5 must not make the window ready")
	}
	c.OnBatchInserted(1, 0, 5)
	if !c.WindowReady([]StreamID{0}, []tstore.BatchID{5}) {
		t.Error("window [5] should be ready")
	}
}

func TestGossipCharged(t *testing.T) {
	f := fabric.New(fabric.DefaultConfig(4))
	c := NewCoordinator(f, 4, 1, 1)
	c.OnBatchInserted(0, 0, 1)
	if got := f.Stats().RPCs; got != 3 {
		t.Errorf("gossip RPCs = %d, want 3", got)
	}
	f.ResetStats()
	c.SNForBatch(0, 9)
	if got := f.Stats().RPCs; got == 0 {
		t.Error("plan publication charged no RPCs")
	}
}

// NextSN is the SN the first unsealed batch of each stream will get, the
// lowest of them, and publishes nothing. A stream with two batches per plan
// can leave it below the newest published plan: batch 3 gets SN 2, which
// batch 4 still shares.
func TestNextSNIsTheLowestUnsealedBatchSN(t *testing.T) {
	c := NewCoordinator(nil, 1, 0, 1)
	fast, slow := c.AddStreamRate(2), c.AddStreamRate(0.5)
	c.SNForBatch(fast, 3)
	published := c.PlansPublished()
	if sn := c.NextSN([]tstore.BatchID{4, 1}); sn != 2 {
		t.Errorf("NextSN(fast b4, slow b1) = %d, want 2", sn)
	}
	if sn := c.NextSN([]tstore.BatchID{9, 1}); sn != 2 {
		t.Errorf("NextSN(fast b9, slow b1) = %d, want slow's 2", sn)
	}
	if c.PlansPublished() != published {
		t.Errorf("NextSN published %d plans", c.PlansPublished()-published)
	}
	for _, b := range []struct {
		s  StreamID
		b  tstore.BatchID
		sn uint32
	}{{fast, 4, 2}, {slow, 1, 2}, {fast, 9, 5}} {
		if sn := c.SNForBatch(b.s, b.b); sn != b.sn {
			t.Errorf("SNForBatch(%d, b%d) = %d, want %d", b.s, b.b, sn, b.sn)
		}
	}
	if sn := c.NextSN(nil); sn != math.MaxUint32 {
		t.Errorf("NextSN with no streams = %d", sn)
	}
}

func TestStallWaits(t *testing.T) {
	c := NewCoordinator(nil, 1, 1, 1)
	if c.StallWaits() != 0 {
		t.Error("fresh coordinator has stalls")
	}
	c.SNForBatch(0, 2)
	if c.StallWaits() == 0 {
		t.Error("outrunning plans did not count a stall")
	}
}

// Property: scalarization preserves VTS order — if batch b1 ≤ b2 on the same
// stream then SN(b1) ≤ SN(b2); and the SN assignment is consistent with the
// plan targets (batch ≤ target of its SN, batch > target of SN-1).
func TestScalarizationOrderProperty(t *testing.T) {
	f := func(interval8 uint8, batches []uint8) bool {
		interval := tstore.BatchID(interval8%5) + 1
		c := NewCoordinator(nil, 1, 1, interval)
		prevB := tstore.BatchID(0)
		prevSN := uint32(0)
		for _, raw := range batches {
			b := prevB + tstore.BatchID(raw%4) // non-decreasing
			if b == 0 {
				b = 1
			}
			sn := c.SNForBatch(0, b)
			if b >= prevB && prevB > 0 && sn < prevSN {
				return false
			}
			// Arithmetic plan: SN = ceil(b/interval).
			want := uint32((b + interval - 1) / interval)
			if sn != want {
				return false
			}
			prevB, prevSN = b, sn
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: Stable_SN never exceeds any node's Local_SN and never decreases.
func TestStableSNMonotoneProperty(t *testing.T) {
	f := func(events []uint16) bool {
		const nodes, streams = 3, 2
		c := NewCoordinator(nil, nodes, streams, 1)
		high := [nodes][streams]tstore.BatchID{}
		prevStable := uint32(0)
		for _, e := range events {
			n := fabric.NodeID(e % nodes)
			s := StreamID((e / nodes) % streams)
			b := high[n][s] + tstore.BatchID(e%3) + 1
			high[n][s] = b
			c.SNForBatch(s, b)
			c.OnBatchInserted(n, s, b)
			sn := c.StableSN()
			if sn < prevStable {
				return false
			}
			prevStable = sn
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
