package fabric

import (
	"errors"
	"sync"
	"sync/atomic"
)

// ErrClusterClosed is returned by Submit (and the helpers built on it) when
// the cluster has been closed. Shutdown races — a query firing while Close
// drains the workers — surface as this error instead of a panic, so callers
// can drop the work gracefully.
var ErrClusterClosed = errors.New("fabric: cluster is closed")

// Cluster layers per-node worker pools over a Fabric. Each logical node binds
// a fixed number of worker goroutines (the paper binds a worker thread per
// core) to a task queue; queries and injection work are submitted to a node
// and executed by one of its workers. Fork-join execution scatters sub-tasks
// to all nodes and gathers results.
type Cluster struct {
	fabric  *Fabric
	queues  []chan func()
	wg      sync.WaitGroup
	mu      sync.RWMutex // guards closed vs. queue sends (shutdown race)
	closed  bool
	pending atomic.Int64
	idle    chan struct{}
}

// NewCluster starts workersPerNode workers on each fabric node.
func NewCluster(f *Fabric, workersPerNode int) *Cluster {
	if workersPerNode < 1 {
		panic("fabric: cluster requires at least one worker per node")
	}
	c := &Cluster{
		fabric: f,
		queues: make([]chan func(), f.Nodes()),
		idle:   make(chan struct{}, 1),
	}
	for n := range c.queues {
		// Generous buffering: the logical task queue per node (§3) absorbs
		// bursts of concurrent query registrations and injections.
		c.queues[n] = make(chan func(), 4096)
		for w := 0; w < workersPerNode; w++ {
			c.wg.Add(1)
			go c.worker(c.queues[n])
		}
	}
	return c
}

// Fabric returns the underlying fabric.
func (c *Cluster) Fabric() *Fabric { return c.fabric }

// Nodes returns the cluster size.
func (c *Cluster) Nodes() int { return c.fabric.Nodes() }

func (c *Cluster) worker(q chan func()) {
	defer c.wg.Done()
	for task := range q {
		task()
		if c.pending.Add(-1) == 0 {
			select {
			case c.idle <- struct{}{}:
			default:
			}
		}
	}
}

// Submit enqueues a task on node n's queue. It returns ErrClusterClosed
// after Close, and the task does not run. The closed check and the queue send
// happen under one lock, so a concurrent Close can never turn a submission
// into a send on a closed channel.
func (c *Cluster) Submit(n NodeID, task func()) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.closed {
		return ErrClusterClosed
	}
	c.pending.Add(1)
	c.queues[n] <- task
	return nil
}

// Call runs fn on node `to` from node `from` as a synchronous RPC, charging
// the two-sided message cost for reqBytes out and fn's returned respBytes
// back. fn executes on one of the target node's workers. If the path to `to`
// is faulted or the cluster is closed, fn never runs — the request message
// could not be delivered.
func (c *Cluster) Call(from, to NodeID, reqBytes int, fn func() (respBytes int)) error {
	if err := c.fabric.Reachable(from, to); err != nil {
		return err
	}
	done := make(chan int, 1)
	if err := c.Submit(to, func() { done <- fn() }); err != nil {
		return err
	}
	resp := <-done
	return c.fabric.RPC(from, to, reqBytes, resp)
}

// ForkJoin runs fn(node) on every node concurrently and waits for all to
// finish, charging one scatter and one gather RPC per remote node. Each fn
// returns the size in bytes of its partial result, which prices the gather.
// The paper uses this mode for non-selective queries and for non-RDMA
// networks (§5, Table 5). Unreachable nodes are skipped and the first fault
// observed is returned after all reachable branches complete.
func (c *Cluster) ForkJoin(from NodeID, reqBytes int, fn func(n NodeID) (respBytes int)) error {
	var wg sync.WaitGroup
	errs := make([]error, c.Nodes())
	for n := 0; n < c.Nodes(); n++ {
		n := NodeID(n)
		if err := c.fabric.Reachable(from, n); err != nil {
			errs[n] = err
			continue
		}
		wg.Add(1)
		err := c.Submit(n, func() {
			defer wg.Done()
			resp := fn(n)
			errs[n] = c.fabric.RPC(from, n, reqBytes, resp)
		})
		if err != nil {
			wg.Done()
			errs[n] = err
		}
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Quiesce blocks until all submitted tasks have completed. Tasks may submit
// further tasks; Quiesce waits for the closure.
func (c *Cluster) Quiesce() {
	for c.pending.Load() != 0 {
		<-c.idle
	}
}

// Close stops all workers after draining queued tasks. Submitting after
// Close returns ErrClusterClosed.
func (c *Cluster) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	for _, q := range c.queues {
		close(q)
	}
	c.mu.Unlock()
	c.wg.Wait()
}
