package monitor

import (
	"context"

	"netdiag/internal/probe"
)

// Watcher is the continuous front end of the serving deployment (§2, §6):
// it consumes a stream of periodic full-mesh measurements, runs them
// through a transient-filtering Detector, and posts every confirmed alarm
// to a sink — in ndserve, the same admission queue the HTTP diagnosis
// requests go through, so monitoring-triggered and operator-triggered
// diagnoses share one bounded pipeline.
//
// The Watcher is deliberately clock-free: the caller owns the measurement
// cadence (a ticker in ndserve, a scripted timeline in tests) and feeds
// meshes over a channel, which keeps the loop deterministic and replayable.
type Watcher struct {
	det *Detector
}

// NewWatcher returns a watcher over a fresh Detector with the given config.
func NewWatcher(cfg Config) *Watcher {
	return &Watcher{det: New(cfg)}
}

// Detector exposes the underlying detector (round count, baseline).
func (w *Watcher) Detector() *Detector { return w.det }

// Observe ingests one measurement round (see Detector.Observe).
func (w *Watcher) Observe(m *probe.Mesh) *Alarm { return w.det.Observe(m) }

// Run consumes measurement rounds until ctx is done or rounds is closed,
// invoking sink synchronously for each confirmed alarm. A synchronous sink
// applies natural backpressure: a diagnosis still in flight delays the
// next round's observation rather than piling up alarms. Run returns nil
// when rounds closes and ctx.Err() when the context ends first.
func (w *Watcher) Run(ctx context.Context, rounds <-chan *probe.Mesh, sink func(context.Context, *Alarm)) error {
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case m, ok := <-rounds:
			if !ok {
				return nil
			}
			if a := w.det.Observe(m); a != nil && sink != nil {
				sink(ctx, a)
			}
		}
	}
}
