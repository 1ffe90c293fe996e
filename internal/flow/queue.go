package flow

import (
	"sync/atomic"

	"repro/internal/obs"
)

// QueueStats is the accounting a bounded admission point reports through:
// depth, high-watermark, admits and sheds. It holds no items; the
// buffer it describes (the stream adaptor's pending buffer) is the owner's.
// All methods are nil-safe.
type QueueStats struct {
	capacity   int64
	depth      atomic.Int64
	watermark  atomic.Int64
	admitted   atomic.Int64
	shedNewest atomic.Int64 // incoming items refused
}

// NewQueueStats creates accounting for a queue bounded at capacity.
func NewQueueStats(capacity int) *QueueStats {
	return &QueueStats{capacity: int64(capacity)}
}

// Observe records the queue's current depth, raising the high-watermark.
func (s *QueueStats) Observe(depth int) {
	if s == nil {
		return
	}
	d := int64(depth)
	s.depth.Store(d)
	for {
		w := s.watermark.Load()
		if d <= w || s.watermark.CompareAndSwap(w, d) {
			return
		}
	}
}

// OnAdmit counts one admitted item.
func (s *QueueStats) OnAdmit() {
	if s != nil {
		s.admitted.Add(1)
	}
}

// OnShedNewest counts n incoming items refused.
func (s *QueueStats) OnShedNewest(n int) {
	if s != nil {
		s.shedNewest.Add(int64(n))
	}
}

// Capacity returns the configured bound (0 for nil).
func (s *QueueStats) Capacity() int64 {
	if s == nil {
		return 0
	}
	return s.capacity
}

// Depth returns the last observed depth.
func (s *QueueStats) Depth() int64 {
	if s == nil {
		return 0
	}
	return s.depth.Load()
}

// Watermark returns the highest depth ever observed.
func (s *QueueStats) Watermark() int64 {
	if s == nil {
		return 0
	}
	return s.watermark.Load()
}

// Admitted returns the admitted-item count.
func (s *QueueStats) Admitted() int64 {
	if s == nil {
		return 0
	}
	return s.admitted.Load()
}

// ShedNewest returns the refused-incoming count: every shed, since a full
// buffer refuses what arrives and evicts nothing it holds.
func (s *QueueStats) ShedNewest() int64 {
	if s == nil {
		return 0
	}
	return s.shedNewest.Load()
}

// Instrument registers the queue's series on r, labeled queue=<name>:
// flow_queue_capacity/depth/watermark gauges and admitted/shed counters.
func (s *QueueStats) Instrument(r *obs.Registry, name string) {
	if s == nil || r == nil {
		return
	}
	lbl := func(base string) string { return obs.Name(base, "queue", name) }
	r.GaugeFunc(lbl("flow_queue_capacity"), s.Capacity)
	r.GaugeFunc(lbl("flow_queue_depth"), s.Depth)
	r.GaugeFunc(lbl("flow_queue_watermark"), s.Watermark)
	r.GaugeFunc(lbl("flow_queue_admitted_total"), s.Admitted)
	r.GaugeFunc(lbl("flow_queue_shed_newest_total"), s.ShedNewest)
}
