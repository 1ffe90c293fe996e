package fabric

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with 0 nodes did not panic")
		}
	}()
	New(Config{Nodes: 0})
}

func TestDefaultLatencyFilledIn(t *testing.T) {
	f := New(Config{Nodes: 2})
	if f.Config().Latency == (LatencyModel{}) {
		t.Error("zero latency model not replaced by default")
	}
}

func TestLocalAccessFree(t *testing.T) {
	f := New(DefaultConfig(4))
	f.ReadRemote(1, 1, 4096)
	f.RPC(2, 2, 100, 100)
	s := f.Stats()
	if s.RDMAReads != 0 || s.RPCs != 0 || s.BytesRead != 0 {
		t.Errorf("local access charged: %+v", s)
	}
}

func TestRemoteReadCounting(t *testing.T) {
	f := New(DefaultConfig(4))
	f.ReadRemote(0, 1, 1024)
	f.ReadRemote(0, 2, 2048)
	s := f.Stats()
	if s.RDMAReads != 2 {
		t.Errorf("RDMAReads = %d, want 2", s.RDMAReads)
	}
	if s.BytesRead != 3072 {
		t.Errorf("BytesRead = %d, want 3072", s.BytesRead)
	}
	if s.ChargedTime <= 0 {
		t.Error("no latency charged")
	}
}

func TestNonRDMAFallsBackToTCP(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.RDMA = false
	f := New(cfg)
	f.ReadRemote(0, 1, 100)
	f.RPC(0, 1, 10, 10)
	s := f.Stats()
	if s.RDMAReads != 0 || s.RPCs != 0 {
		t.Errorf("non-RDMA fabric used RDMA ops: %+v", s)
	}
	if s.TCPRounds != 2 {
		t.Errorf("TCPRounds = %d, want 2", s.TCPRounds)
	}
}

func TestNonRDMAChargesMore(t *testing.T) {
	rdma := New(DefaultConfig(2))
	cfg := DefaultConfig(2)
	cfg.RDMA = false
	tcp := New(cfg)
	rdma.ReadRemote(0, 1, 512)
	tcp.ReadRemote(0, 1, 512)
	if rdma.Stats().ChargedTime >= tcp.Stats().ChargedTime {
		t.Errorf("RDMA read (%v) should be cheaper than TCP (%v)",
			rdma.Stats().ChargedTime, tcp.Stats().ChargedTime)
	}
}

func TestSpinModeActuallyDelays(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Mode = Spin
	cfg.Latency.RDMARead = 200 * time.Microsecond
	f := New(cfg)
	start := time.Now()
	f.ReadRemote(0, 1, 64)
	if d := time.Since(start); d < 150*time.Microsecond {
		t.Errorf("spin mode returned after %v, want >= ~200µs", d)
	}
}

func TestSleepModeDelays(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Mode = Sleep
	cfg.Latency.RPC = 2 * time.Millisecond
	f := New(cfg)
	start := time.Now()
	f.RPC(0, 1, 1, 1)
	if d := time.Since(start); d < time.Millisecond {
		t.Errorf("sleep mode returned after %v", d)
	}
}

func TestResetStats(t *testing.T) {
	f := New(DefaultConfig(2))
	f.ReadRemote(0, 1, 10)
	f.ResetStats()
	if s := f.Stats(); s != (Stats{}) {
		t.Errorf("stats after reset: %+v", s)
	}
}

func TestChargeCompute(t *testing.T) {
	f := New(DefaultConfig(1))
	f.ChargeCompute(5 * time.Microsecond)
	if f.Stats().ChargedTime != 5*time.Microsecond {
		t.Errorf("ChargedTime = %v", f.Stats().ChargedTime)
	}
	f.ChargeCompute(-1) // negative charges are ignored
	if f.Stats().ChargedTime != 5*time.Microsecond {
		t.Error("negative charge changed stats")
	}
}

func TestNodeRangeChecks(t *testing.T) {
	f := New(DefaultConfig(2))
	for _, fn := range []func(){
		func() { f.ReadRemote(0, 2, 1) },
		func() { f.ReadRemote(-1, 0, 1) },
		func() { f.RPC(0, 5, 1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-range node did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestHomeOfInRangeAndBalanced(t *testing.T) {
	f := New(DefaultConfig(8))
	counts := make([]int, 8)
	const n = 100000
	for id := uint64(1); id <= n; id++ {
		h := f.HomeOf(id)
		if h < 0 || int(h) >= 8 {
			t.Fatalf("HomeOf(%d) = %d out of range", id, h)
		}
		counts[h]++
	}
	for node, c := range counts {
		if c < n/8*7/10 || c > n/8*13/10 {
			t.Errorf("node %d holds %d of %d ids; poor balance %v", node, c, n, counts)
		}
	}
}

func TestHomeOfDeterministic(t *testing.T) {
	f := New(DefaultConfig(4))
	g := New(DefaultConfig(4))
	prop := func(id uint64) bool { return f.HomeOf(id) == g.HomeOf(id) }
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestLatencyModeString(t *testing.T) {
	if Off.String() != "off" || Spin.String() != "spin" || Sleep.String() != "sleep" {
		t.Error("LatencyMode strings wrong")
	}
	if LatencyMode(7).String() != "LatencyMode(7)" {
		t.Error("unknown mode string wrong")
	}
}

func TestClusterSubmitRuns(t *testing.T) {
	f := New(DefaultConfig(4))
	c := NewCluster(f, 2)
	defer c.Close()
	var count atomic.Int64
	var done sync.WaitGroup
	for n := 0; n < 4; n++ {
		for i := 0; i < 25; i++ {
			done.Add(1)
			c.Submit(NodeID(n), func() { count.Add(1); done.Done() })
		}
	}
	done.Wait()
	if count.Load() != 100 {
		t.Errorf("ran %d tasks, want 100", count.Load())
	}
}

func TestClusterSubmitAfterCloseReturnsTypedError(t *testing.T) {
	f := New(DefaultConfig(1))
	c := NewCluster(f, 1)
	c.Close()
	c.Close() // idempotent
	err := c.Submit(0, func() { t.Error("task ran on closed cluster") })
	if !errors.Is(err, ErrClusterClosed) {
		t.Errorf("Submit after Close = %v, want ErrClusterClosed", err)
	}
}

func TestClusterSubmitCloseRace(t *testing.T) {
	// Before the typed-error fix, Submit checked closed and then sent on a
	// possibly-closed channel: a shutdown race panicked. Now the check and
	// send share a lock, so every Submit either runs its task or returns
	// ErrClusterClosed. Hammer the race under -race.
	for iter := 0; iter < 50; iter++ {
		f := New(DefaultConfig(4))
		c := NewCluster(f, 2)
		var ran, refused atomic.Int64
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for i := 0; i < 50; i++ {
					if err := c.Submit(NodeID((g+i)%4), func() { ran.Add(1) }); err != nil {
						if !errors.Is(err, ErrClusterClosed) {
							t.Errorf("Submit error = %v, want ErrClusterClosed", err)
						}
						refused.Add(1)
					}
				}
			}(g)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			c.Close()
		}()
		close(start)
		wg.Wait()
		if ran.Load()+refused.Load() != 8*50 {
			t.Fatalf("tasks unaccounted: ran=%d refused=%d", ran.Load(), refused.Load())
		}
	}
}

func TestClusterWorkerValidation(t *testing.T) {
	f := New(DefaultConfig(1))
	defer func() {
		if recover() == nil {
			t.Error("0 workers did not panic")
		}
	}()
	NewCluster(f, 0)
}

func TestClusterConcurrentSubmitters(t *testing.T) {
	f := New(DefaultConfig(8))
	c := NewCluster(f, 4)
	defer c.Close()
	var count atomic.Int64
	var wg, done sync.WaitGroup
	done.Add(16 * 200)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				c.Submit(NodeID((g+i)%8), func() { count.Add(1); done.Done() })
			}
		}(g)
	}
	wg.Wait()
	done.Wait()
	if count.Load() != 16*200 {
		t.Errorf("ran %d, want %d", count.Load(), 16*200)
	}
}
