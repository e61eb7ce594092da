package bsp

// Job-level wire views of the instrumentation: the serving daemon
// (cmd/vcd) streams per-superstep progress and returns a run summary
// as JSON, so these mirror SuperstepStats/Stats with stable JSON field
// names and totals in place of per-processor slices. They carry no
// behavior of their own — Summarize and Record are pure projections.

// SuperstepRecord is the wire view of one superstep: per-processor
// slices collapsed to totals and maxima.
type SuperstepRecord struct {
	Step    int     `json:"step"`
	Active  int64   `json:"active"`
	Work    int64   `json:"work"`
	Sent    int64   `json:"sent"`
	MaxWork int64   `json:"max_work"` // w = max_i Work[i]
	MaxComm int64   `json:"max_comm"` // h = max_i max(Sent[i], Recv[i])
	Cost    float64 `json:"cost"`     // max(w, g·h, L)
	Pulled  bool    `json:"pulled"`
	// Frontier is the active-frontier size entering the superstep —
	// the signal the direction optimizer and the adaptive planner saw
	// when they picked this superstep's execution mode.
	Frontier int64 `json:"frontier"`
}

// Record projects one superstep's stats to its wire view. step is the
// superstep index the record describes.
func Record(step int, s SuperstepStats) SuperstepRecord {
	var work, sent int64
	for _, w := range s.Work {
		work += w
	}
	for _, m := range s.Sent {
		sent += m
	}
	return SuperstepRecord{
		Step:     step,
		Active:   s.ActiveVertices(),
		Work:     work,
		Sent:     sent,
		MaxWork:  s.MaxWork,
		MaxComm:  s.MaxComm,
		Cost:     s.Cost,
		Pulled:   s.Pulled,
		Frontier: s.Frontier,
	}
}

// Summary is the job-level wire view of a full run. HeapDelta and
// AllocDelta are Stats.HeapInuseDelta and TotalAllocDelta:
// process-wide, and approximate to a span per P.
type Summary struct {
	Workers       int     `json:"workers"`
	N             int     `json:"n"`
	Supersteps    int     `json:"supersteps"`
	Pulled        int     `json:"pulled_supersteps"`
	TotalMessages int64   `json:"total_messages"`
	TotalWork     int64   `json:"total_work"`
	MeasuredTime  float64 `json:"measured_time"`
	MeasuredTPP   float64 `json:"measured_tpp"`
	HeapDelta     int64   `json:"heap_inuse_delta"`
	AllocDelta    uint64  `json:"total_alloc_delta"`
	Rollbacks     int     `json:"rollbacks,omitempty"`
	RedoneUnits   int     `json:"redone_units,omitempty"`
	// Checkpoint byte accounting, split by frame kind (delta
	// checkpointing): estimated resident bytes of full snapshots vs
	// dirty-set delta frames, plus how many of the saves were deltas.
	CheckpointBytesFull  int64 `json:"checkpoint_bytes_full,omitempty"`
	CheckpointBytesDelta int64 `json:"checkpoint_bytes_delta,omitempty"`
	DeltaCheckpoints     int   `json:"delta_checkpoints,omitempty"`
}

// Summarize projects the run's stats to the job-level wire view.
func (s *Stats) Summarize() Summary {
	return Summary{
		Workers:       s.Workers,
		N:             s.N,
		Supersteps:    s.NumSupersteps(),
		Pulled:        s.PulledSupersteps(),
		TotalMessages: s.TotalMessages,
		TotalWork:     s.TotalWork,
		MeasuredTime:  s.MeasuredTime,
		MeasuredTPP:   s.MeasuredTPP(),
		HeapDelta:     s.HeapInuseDelta,
		AllocDelta:    s.TotalAllocDelta,
		Rollbacks:     s.Recovery.Rollbacks,
		RedoneUnits:   s.Recovery.RedoneSupersteps,

		CheckpointBytesFull:  s.Recovery.CheckpointBytesFull,
		CheckpointBytesDelta: s.Recovery.CheckpointBytesDelta,
		DeltaCheckpoints:     s.Recovery.DeltaCheckpointsSaved,
	}
}
