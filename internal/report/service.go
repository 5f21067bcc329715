package report

import "repro/internal/obs"

// ServiceSection summarises the msatpgd job daemon's lifecycle and
// durability counters, when the snapshot came from a daemon process.
// The split mirrors the daemon's failure-mode matrix: Retried counts
// transient casualties the backoff policy absorbed, Recovered counts
// jobs a crashed predecessor left running that this process resumed,
// Rejected counts load-shed submissions (429/503), and the store
// figures separate a flaky disk (writes failed, serving continued)
// from damaged state that was quarantined for a fresh start.
type ServiceSection struct {
	Submitted  int64 `json:"submitted"`
	Started    int64 `json:"started"`
	Completed  int64 `json:"completed"`
	Failed     int64 `json:"failed,omitempty"`
	Canceled   int64 `json:"canceled,omitempty"`
	Retried    int64 `json:"retried,omitempty"`
	Recovered  int64 `json:"recovered,omitempty"`
	Rejected   int64 `json:"rejected,omitempty"`
	QueueDepth int64 `json:"queue_depth"`
	Running    int64 `json:"running"`

	StoreWrites       int64 `json:"store_writes,omitempty"`
	StoreErrors       int64 `json:"store_errors,omitempty"`
	StoreCorrupt      int64 `json:"store_corrupt,omitempty"`
	CheckpointCorrupt int64 `json:"checkpoint_corrupt,omitempty"`
}

// buildService distils the daemon's service.* metrics from a snapshot,
// or nil when the snapshot carries none (a plain pipeline run).
func buildService(s *obs.Snapshot) *ServiceSection {
	c := s.Counters
	sec := &ServiceSection{
		Submitted:         c["service.jobs.submitted"],
		Started:           c["service.jobs.started"],
		Completed:         c["service.jobs.completed"],
		Failed:            c["service.jobs.failed"],
		Canceled:          c["service.jobs.canceled"],
		Retried:           c["service.jobs.retried"],
		Recovered:         c["service.jobs.recovered"],
		Rejected:          c["service.jobs.rejected"],
		QueueDepth:        s.Gauges["service.queue.depth"],
		Running:           s.Gauges["service.jobs.running"],
		StoreWrites:       c["service.store.writes"],
		StoreErrors:       c["service.store.errors"],
		StoreCorrupt:      c["service.store.corrupt"],
		CheckpointCorrupt: c["service.ckpt.corrupt"],
	}
	if sec.Submitted == 0 && sec.Started == 0 && sec.Recovered == 0 && sec.StoreWrites == 0 {
		return nil
	}
	return sec
}
