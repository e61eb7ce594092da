package runtime

import "fmt"

// This file implements the pull half of direction-optimizing execution
// (iPregel-style push/pull switching). In push mode a broadcast is
// materialized as one mailbox message per out-edge; in pull mode the
// sender merely publishes its message in a per-vertex broadcast slot
// and every destination gathers over its CSR transpose span, applying
// the program's combiner in place into an accumulator — zero mailbox
// traffic, zero sender-side contention, sequential reads. Pull is only
// sound when a combiner exists: the gather folds an unordered set of
// contributions, so the program must have declared that message order
// is irrelevant (associative + commutative reduction).

// DirectionMode selects the message path of a superstep-based engine.
type DirectionMode int

const (
	// DirectionAuto switches per superstep: pull when the active
	// frontier is dense (|frontier| > threshold·n) and a combiner is
	// registered, push otherwise.
	DirectionAuto DirectionMode = iota
	// DirectionPush always materializes messages through the mailbox.
	DirectionPush
	// DirectionPull gathers every superstep that has a combiner
	// (supersteps without one still push).
	DirectionPull
)

// DefaultPullThreshold is the auto-mode frontier density above which a
// superstep is pulled: |frontier| > n/20.
const DefaultPullThreshold = 1.0 / 20

// String returns the CLI spelling of the mode.
func (m DirectionMode) String() string {
	switch m {
	case DirectionPush:
		return "push"
	case DirectionPull:
		return "pull"
	}
	return "auto"
}

// ParseDirectionMode parses a CLI -mode value. The empty string means
// auto.
func ParseDirectionMode(s string) (DirectionMode, error) {
	switch s {
	case "", "auto":
		return DirectionAuto, nil
	case "push":
		return DirectionPush, nil
	case "pull":
		return DirectionPull, nil
	}
	return DirectionAuto, fmt.Errorf("runtime: unknown direction mode %q (want push, pull, or auto)", s)
}

// ChoosePull decides whether the upcoming superstep runs the pull
// path. combinable reports whether the engine has a combiner (pull is
// never legal without one); frontier is the number of vertices that
// will compute. Auto pulls above DefaultPullThreshold.
func ChoosePull(mode DirectionMode, combinable bool, frontier, n int) bool {
	if !combinable {
		return false
	}
	switch mode {
	case DirectionPush:
		return false
	case DirectionPull:
		return true
	}
	return float64(frontier) > DefaultPullThreshold*float64(n)
}

// Broadcasts holds one message slot per vertex: the value a vertex
// broadcast to all its out-neighbors during a pulled superstep, plus
// the raw call count (a vertex may broadcast more than once per
// superstep; with a combiner each call folds into the slot, exactly as
// it would fold into each destination's outbox lane entry under push).
// Slots are invalidated in O(1) at the superstep barrier by an epoch
// tag, mirroring the mailbox's sender-combining index.
//
// Writes are race-free by construction: only vertex v's owner calls
// Set(v) during the compute phase; readers gather after the barrier.
type Broadcasts[M any] struct {
	val   []M
	cnt   []int32
	tag   []uint32
	epoch uint32
}

// NewBroadcasts builds broadcast slots for n vertices from arrays taken
// from the run-buffer cache. A taken tag array is all zeros, so no slot
// matches the first epoch.
func NewBroadcasts[M any](n int) *Broadcasts[M] {
	return &Broadcasts[M]{
		val:   TakeArray[M](n),
		cnt:   TakeArray[int32](n),
		tag:   TakeArray[uint32](n),
		epoch: 1,
	}
}

// Release gives the slots' arrays back to the run-buffer cache, zeroed.
// The slots must not be used afterwards. Release is idempotent.
func (b *Broadcasts[M]) Release() {
	KeepArray(b.val)
	KeepArray(b.cnt)
	KeepArray(b.tag)
	b.val, b.cnt, b.tag = nil, nil, nil
}

// Advance invalidates every slot. Call once per superstep,
// single-threaded at the barrier.
func (b *Broadcasts[M]) Advance() {
	b.epoch++
	if b.epoch == 0 { // wrapped: reset tags so stale slots cannot alias
		clear(b.tag)
		b.epoch = 1
	}
}

// Set publishes m as v's broadcast for this superstep. A repeated Set
// folds into the slot via comb (or just bumps the raw count when comb
// is nil, the set-semantics case used for activation marking).
func (b *Broadcasts[M]) Set(v VertexID, m M, comb func(a, m M) M) {
	if b.tag[v] == b.epoch {
		if comb != nil {
			b.val[v] = comb(b.val[v], m)
		}
		b.cnt[v]++
		return
	}
	b.tag[v] = b.epoch
	b.val[v] = m
	b.cnt[v] = 1
}

// Has reports whether v broadcast during the current superstep.
func (b *Broadcasts[M]) Has(v VertexID) bool { return b.tag[v] == b.epoch }

// Get returns v's broadcast slot and raw call count; only valid when
// Has(v).
func (b *Broadcasts[M]) Get(v VertexID) (M, int32) { return b.val[v], b.cnt[v] }

// Gatherer is one worker's scratch for the pull-mode gather: per-source-
// worker partial accumulators that replicate the push path's fold order
// bit for bit, so even non-exact (floating-point) combiners produce
// identical results in either direction.
//
// Under push, destination v's inbox value is built as a left fold over
// outbox lanes in source-worker order 0..P-1, where each lane's entry
// is itself a left fold of that worker's sends in ascending source
// order (workers drain sorted worklists). The gather reproduces this
// exactly: scanning v's transpose span in ascending source order while
// folding into a per-source-worker partial yields the per-lane folds;
// folding the partials in worker order yields the cross-lane fold.
type Gatherer[M any] struct {
	partial []M
	seen    []bool
}

// NewGatherer builds gather scratch for engines with P source workers.
// Gather writes both arrays on every edge, so they are Fenced: the
// allocator would otherwise pack them beside another worker's.
func NewGatherer[M any](workers int) *Gatherer[M] {
	return &Gatherer[M]{partial: Fenced[M](workers), seen: Fenced[bool](workers)}
}

// Gather folds the broadcast contributions of srcs — destination v's
// CSR transpose span, ascending source order — into one accumulator.
// owner maps vertices to workers; comb must be the engine's combiner.
// ok is false when no source broadcast this superstep; raw is the
// pre-combining message count the BSP Stats charge.
func (g *Gatherer[M]) Gather(bc *Broadcasts[M], owner []int32, srcs []VertexID, comb func(a, m M) M) (acc M, raw int64, ok bool) {
	partial, seen := g.partial, g.seen
	tag, epoch := bc.tag, bc.epoch
	for _, src := range srcs {
		if tag[src] != epoch {
			continue
		}
		w := owner[src]
		if seen[w] {
			partial[w] = comb(partial[w], bc.val[src])
		} else {
			seen[w] = true
			partial[w] = bc.val[src]
		}
		raw += int64(bc.cnt[src])
	}
	if raw == 0 {
		return acc, 0, false
	}
	for w := range seen {
		if !seen[w] {
			continue
		}
		if ok {
			acc = comb(acc, partial[w])
		} else {
			acc = partial[w]
			ok = true
		}
		seen[w] = false
	}
	return acc, raw, true
}
