package runtime

// Checkpoints is the shared checkpoint store under the engines'
// rollback recovery. Every engine has one frame shape (Policy.Snapshot):
// a *full* frame carries every vertex, and a *delta* frame carries only
// the state dirtied since the frame saved immediately before it. A delta
// frame is readable only through its whole ancestor chain — every frame
// from the nearest full frame below it up to the frame itself — so
// corrupting one frame silently poisons every frame that depends on it.
//
// Retention follows Pregel's write-then-retire checkpoint files:
// whenever a full frame lands, the store prunes everything older than
// the second-newest full frame, so at most two reconstructible full
// generations (plus their dependent
// deltas) stay resident. With every save full — the default when
// FullSnapshotEvery is unset — that is the current + previous pair.
//
// A snapshot written while a FaultCorruptCheckpoint event is armed is
// stored with its corrupt flag set — the damage stays silent until
// Recover walks a chain through the frame, fails its validation,
// discards it together with every dependent frame, and falls back to an
// older reconstructible generation.
//
// The store is generic over the engine's snapshot type S; engines are
// responsible for deep-copying their state into S (see ValueCloner).
// Each frame the store drops — pruned by Save, or emptied out by
// RetireAll — goes to retire exactly once, when retire is set: a frame
// goes back only once no Recover can return it.
type Checkpoints[S any] struct {
	frames []ckFrameRec[S] // oldest first
	saved  int
	deltas int
	retire func(S)
}

type ckFrameRec[S any] struct {
	state   S
	step    int
	full    bool
	ok      bool
	corrupt bool
}

// Save appends a frame taken at the given barrier. full marks a
// complete snapshot; a delta frame patches the frame saved immediately
// before it. corrupt marks the frame as silently damaged (it will fail
// validation when a recovery reads it back). The first frame ever
// saved must be full — the driver guarantees it.
func (c *Checkpoints[S]) Save(step int, state S, full, corrupt bool) {
	c.frames = append(c.frames, ckFrameRec[S]{state: state, step: step, full: full, ok: true, corrupt: corrupt})
	c.saved++
	if !full {
		c.deltas++
		return
	}
	// A new full generation retires everything older than the previous
	// full frame: two reconstructible generations stay resident.
	fulls := 0
	for i := len(c.frames) - 1; i >= 0; i-- {
		if !c.frames[i].full {
			continue
		}
		fulls++
		if fulls == 2 {
			c.drop(i)
			return
		}
	}
}

// drop retires the oldest k frames and forgets them.
func (c *Checkpoints[S]) drop(k int) {
	if c.retire != nil {
		for _, f := range c.frames[:k] {
			c.retire(f.state)
		}
	}
	n := copy(c.frames, c.frames[k:])
	clear(c.frames[n:])
	c.frames = c.frames[:n]
}

// RetireAll retires every frame the store still holds and empties it;
// a run calls it when it ends.
func (c *Checkpoints[S]) RetireAll() { c.drop(len(c.frames)) }

// Recover returns the newest reconstructible generation as a chain:
// chain[0] is a full frame and every later element is a delta to apply
// in order. It walks back from the newest frame; a candidate whose
// chain crosses a corrupt frame is discarded — the corrupt frame is
// counted once in skipped, and every still-readable frame depending on
// it is marked unreadable and counted in invalidated. ok is false when
// no reconstructible generation exists — the driver then restores its
// start frame.
func (c *Checkpoints[S]) Recover() (chain []S, step int, skipped, invalidated int, ok bool) {
	for i := len(c.frames) - 1; i >= 0; i-- {
		if !c.frames[i].ok {
			continue
		}
		// Locate the candidate's base full frame, then validate the
		// reconstruction chain base..i in read order.
		base := i
		for base >= 0 && !c.frames[base].full {
			base--
		}
		bad := -1
		if base < 0 {
			bad = 0 // headless deltas: no full base survives
		} else {
			for j := base; j <= i; j++ {
				g := &c.frames[j]
				if !g.ok {
					bad = j
					break
				}
				if g.corrupt {
					g.ok = false
					skipped++
					bad = j
					break
				}
			}
		}
		if bad < 0 {
			chain = make([]S, 0, i-base+1)
			for j := base; j <= i; j++ {
				chain = append(chain, c.frames[j].state)
			}
			return chain, c.frames[i].step, skipped, invalidated, true
		}
		// Everything above the bad frame through the candidate depends
		// on it (the range holds no other full frame) and is unreadable.
		for j := bad; j <= i; j++ {
			if g := &c.frames[j]; g.ok {
				g.ok = false
				invalidated++
			}
		}
		i = bad // resume the walk below the bad frame
	}
	return nil, 0, skipped, invalidated, false
}

// Saved reports how many frames have been written over the store's
// lifetime.
func (c *Checkpoints[S]) Saved() int { return c.saved }

// DeltaSaved reports how many of the saved frames were deltas.
func (c *Checkpoints[S]) DeltaSaved() int { return c.deltas }

// ValueCloner lets a program deep-copy vertex values for checkpoints.
// Programs whose value type carries reference types (slices, maps)
// must implement it, or a rollback would restore values aliasing live
// state. All four engines check for it when snapshotting.
type ValueCloner[V any] interface {
	CloneValue(v V) V
}

// A checkpoint frame lists the indices (vertices, or blocks) it carries
// in ids and stores their state by position in ids. A full frame is the
// delta over everything: ids == nil means every index, in order.
// TakeDirty picks a frame's ids, FrameID maps a position back to its
// index, and CloneValuesAt / RestoreValuesAt gather and scatter values
// by them.

// TakeDirty returns the ids a frame carries and clears dirty: nil for a
// full frame, the marked indices ascending for a delta, counted first
// and then gathered into an array taken from the run-buffer cache —
// never nil, so an empty delta is not mistaken for a full frame.
func TakeDirty[ID ~int | ~int32](dirty []bool, full bool) []ID {
	if full {
		clear(dirty)
		return nil
	}
	n := 0
	for _, d := range dirty {
		if d {
			n++
		}
	}
	ids := TakeArray[ID](n)
	k := 0
	for i, d := range dirty {
		if d {
			ids[k] = ID(i)
			k++
			dirty[i] = false
		}
	}
	return ids
}

// FrameID maps position i of a frame to the index it covers: i itself
// in a full frame (ids == nil), ids[i] in a delta.
func FrameID[ID ~int | ~int32](ids []ID, i int) ID {
	if ids == nil {
		return ID(i)
	}
	return ids[i]
}

// CloneValuesAt gathers src[id] for each id (all of src when ids is
// nil) into an array taken from the run-buffer cache, deep-copying when
// the program implements ValueCloner[V].
func CloneValuesAt[V any, ID ~int | ~int32](prog any, src []V, ids []ID) []V {
	n := len(src)
	if ids != nil {
		n = len(ids)
	}
	out := TakeArray[V](n)
	cloner, hasCloner := prog.(ValueCloner[V])
	switch {
	case hasCloner:
		for i := range out {
			out[i] = cloner.CloneValue(src[FrameID(ids, i)])
		}
	case ids == nil:
		copy(out, src)
	default:
		for i, id := range ids {
			out[i] = src[id]
		}
	}
	return out
}

// RestoreValuesAt is the scatter counterpart of CloneValuesAt: it writes
// src[i] back to dst[ids[i]] (to dst[i] when ids is nil), deep-copying
// when the program implements ValueCloner[V].
func RestoreValuesAt[V any, ID ~int | ~int32](prog any, dst, src []V, ids []ID) {
	cloner, hasCloner := prog.(ValueCloner[V])
	for i, v := range src {
		if hasCloner {
			v = cloner.CloneValue(v)
		}
		dst[FrameID(ids, i)] = v
	}
}
