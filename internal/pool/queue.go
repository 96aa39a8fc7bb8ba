package pool

import (
	"sync"

	"netdiag/internal/telemetry"
)

// Queue is the long-running counterpart of ForEach: a bounded admission
// queue drained by a fixed set of worker goroutines. It is what a serving
// process puts in front of the simulate→probe→diagnose pipeline — the
// queue capacity bounds memory and tail latency, and an over-capacity
// submission is refused immediately (load shedding) instead of piling up.
//
// A Queue is safe for concurrent TrySubmit calls. Close stops admission,
// lets the already-queued jobs drain, and waits for the workers to exit.
type Queue struct {
	mu     sync.RWMutex
	jobs   chan func()
	closed bool
	wg     sync.WaitGroup

	depth     *telemetry.Gauge
	submitted *telemetry.Counter
	executed  *telemetry.Counter
	shed      *telemetry.Counter
}

// NewQueue starts a queue with the given worker count (<= 0 selects
// runtime.GOMAXPROCS(0)) and queue capacity (jobs waiting beyond the ones
// executing; < 0 is treated as 0, meaning a submission only succeeds when
// a worker is free to take it promptly). A non-nil registry receives the
// queue metrics: the "pool.queue_depth" gauge and the
// "pool.queue_{submitted,executed,shed}" counters.
func NewQueue(workers, capacity int, r *telemetry.Registry) *Queue {
	if capacity < 0 {
		capacity = 0
	}
	q := &Queue{jobs: make(chan func(), capacity)}
	if r != nil {
		q.depth = r.Gauge("pool.queue_depth")
		q.submitted = r.Counter("pool.queue_submitted")
		q.executed = r.Counter("pool.queue_executed")
		q.shed = r.Counter("pool.queue_shed")
	}
	for w := 0; w < Size(workers); w++ {
		q.wg.Add(1)
		go q.worker()
	}
	return q
}

func (q *Queue) worker() {
	defer q.wg.Done()
	for fn := range q.jobs {
		q.depth.Add(-1)
		fn()
		q.executed.Inc()
	}
}

// TrySubmit offers fn to the queue. It returns false — without blocking —
// when the queue is at capacity or closed; the caller sheds the request
// (HTTP 429 in ndserve). On true, fn will run on a worker goroutine.
func (q *Queue) TrySubmit(fn func()) bool {
	q.mu.RLock()
	defer q.mu.RUnlock()
	if q.closed {
		q.shed.Inc()
		return false
	}
	select {
	case q.jobs <- fn:
		q.depth.Add(1)
		q.submitted.Inc()
		return true
	default:
		q.shed.Inc()
		return false
	}
}

// Close stops admission (subsequent TrySubmit returns false), drains the
// already-accepted jobs and waits for every worker to finish. It is
// idempotent.
func (q *Queue) Close() {
	q.mu.Lock()
	if !q.closed {
		q.closed = true
		close(q.jobs)
	}
	q.mu.Unlock()
	q.wg.Wait()
}
