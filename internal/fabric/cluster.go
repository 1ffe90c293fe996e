package fabric

import (
	"errors"
	"sync"
)

// ErrClusterClosed is returned by Submit when the cluster has been closed.
// Shutdown races — a query firing while Close drains the workers — surface as
// this error instead of a panic, so callers can drop the work gracefully.
var ErrClusterClosed = errors.New("fabric: cluster is closed")

// Cluster layers per-node worker pools over a Fabric. Each logical node binds
// a fixed number of worker goroutines (the paper binds a worker thread per
// core) to a task queue; queries and injection work are submitted to a node
// and executed by one of its workers.
type Cluster struct {
	fabric *Fabric
	queues []chan func()
	wg     sync.WaitGroup
	mu     sync.RWMutex // guards closed vs. queue sends (shutdown race)
	closed bool
}

// NewCluster starts workersPerNode workers on each fabric node.
func NewCluster(f *Fabric, workersPerNode int) *Cluster {
	if workersPerNode < 1 {
		panic("fabric: cluster requires at least one worker per node")
	}
	c := &Cluster{
		fabric: f,
		queues: make([]chan func(), f.Nodes()),
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
	c.queues[n] <- task
	return nil
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
