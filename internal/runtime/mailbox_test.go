package runtime

import (
	"slices"
	"testing"
)

// TestPushPathZeroAlloc: after warm-up, one push cycle — Send and
// SendAll into the lanes, DeliverFaulty on every worker, ResetVertex on
// every receiver — performs zero heap allocations, with and without a
// combiner. Every cycle mails vertices no earlier cycle touched, so the
// test also pins that a vertex's first mail costs nothing: inboxes are
// combiner slots or runs of a reused per-worker slab, never a buffer of
// their own.
func TestPushPathZeroAlloc(t *testing.T) {
	const n, workers, k = 256, 4, 16
	owner := make([]int32, n)
	for v := range owner {
		owner[v] = int32(v % workers)
	}
	sum := func(a, b int) int { return a + b }
	for _, comb := range []func(a, b int) int{nil, sum} {
		mb := NewMailbox[int](workers, owner, comb)
		dsts := make([]VertexID, k)
		hooks, round := 0, 0
		hook := func(VertexID) { hooks++ }
		cycle := func() {
			mb.Advance()
			for i := range dsts {
				dsts[i] = VertexID((round*k + i) % n)
			}
			round++
			for src := 0; src < workers; src++ {
				mb.SendAll(src, dsts, src)
				for _, d := range dsts {
					mb.Send(src, d, 1)
				}
			}
			for w := 0; w < workers; w++ {
				mb.DeliverFaulty(w, round, nil, hook)
			}
			for _, d := range dsts {
				if mb.RawCount(d) != 2*workers {
					t.Fatalf("vertex %d: raw %d, want %d", d, mb.RawCount(d), 2*workers)
				}
				mb.ResetVertex(d)
			}
		}
		cycle() // warm the lanes and slabs
		if avg := testing.AllocsPerRun(10, cycle); avg != 0 {
			t.Errorf("combiner %v: push cycle allocates %.1f times per superstep, want 0", comb != nil, avg)
		}
		if hooks != round*k {
			t.Errorf("combiner %v: %d first-mail hooks, want %d", comb != nil, hooks, round*k)
		}
	}
}

// mailModel is the reference the fuzzer checks Mailbox against: one
// plain slice per vertex, appended in source-worker lane order, and a
// combined inbox left-folded in that same order.
type mailModel struct {
	comb  func(a, b uint32) uint32
	owner []int32
	lanes [][][]entry[uint32] // [src][dst worker], in send order
	inbox [][]uint32
	raw   []int64
}

func (md *mailModel) send(src int, dst VertexID, m uint32) {
	ln := &md.lanes[src][md.owner[dst]]
	if md.comb != nil {
		for i := range *ln {
			if e := &(*ln)[i]; e.dst == dst {
				e.m, e.raw = md.comb(e.m, m), e.raw+1
				return
			}
		}
	}
	*ln = append(*ln, entry[uint32]{dst: dst, raw: 1, m: m})
}

func (md *mailModel) place(v VertexID, m uint32) (placed int64) {
	if md.comb != nil && len(md.inbox[v]) > 0 {
		md.inbox[v][0] = md.comb(md.inbox[v][0], m)
		return 0
	}
	md.inbox[v] = append(md.inbox[v], m)
	return 1
}

func (md *mailModel) deliver(w int, faults []FaultKind) (first []VertexID, delivered, placements int64, dropped bool) {
	for src := range md.lanes {
		ln := md.lanes[src][w]
		md.lanes[src][w] = nil
		if faults[src] == FaultDropLane {
			dropped = true
			continue
		}
		for _, e := range ln {
			if md.raw[e.dst] == 0 {
				first = append(first, e.dst)
			}
			md.raw[e.dst] += int64(e.raw)
			delivered += int64(e.raw)
			placements += md.place(e.dst, e.m)
		}
	}
	return first, delivered, placements, dropped
}

// FuzzMailbox drives a Mailbox with a drawn worker count, ownership,
// combiner (order-sensitive, so a fold out of lane order shows), send
// batches, dropped and duplicated lanes, resets and checkpoint loads,
// and checks every inbox, raw count, delivery tally and first-mail hook
// against mailModel: with or without a combiner, the hook fires once
// per vertex whose raw count leaves zero, in first-arrival lane order.
// Before each delivery it resets every vertex holding mail, the
// precondition the engine keeps by computing them.
func FuzzMailbox(f *testing.F) {
	f.Add([]byte{3, 9, 0, 1, 2, 1, 0, 2, 1, 1, 2, 0, 8, 5, 7, 0, 3, 6, 1, 1, 4, 2, 9, 3, 1, 2, 0, 1})
	f.Add([]byte{2, 5, 1, 0, 1, 0, 1, 1, 12, 0, 0, 1, 3, 0, 0, 2, 4, 1, 1, 0, 3, 1, 2, 1, 3, 2, 9, 9, 7, 1, 2})
	f.Add([]byte{1, 3, 0, 0, 0, 0, 6, 0, 0, 0, 1, 1, 0, 2, 3, 2, 4, 3, 0, 2, 5, 1, 0, 1, 7, 8})
	// No combiner, three workers, one dropped lane per receiver.
	f.Add([]byte{2, 8, 0, 1, 2, 0, 1, 2, 2, 1, 0, 9, 0, 5, 3, 1, 1, 7, 4, 1, 3, 2, 2, 2, 6, 0, 1, 1, 1, 0, 0, 6, 0, 0, 0, 1, 0, 1, 0, 0, 1, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func(mod int) int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b) % mod
		}
		p, n := 1+next(4), 1+next(24)
		owner := make([]int32, n)
		for v := range owner {
			owner[v] = int32(next(p))
		}
		md := &mailModel{owner: owner, lanes: make([][][]entry[uint32], p), inbox: make([][]uint32, n), raw: make([]int64, n)}
		for src := range md.lanes {
			md.lanes[src] = make([][]entry[uint32], p)
		}
		if next(2) == 1 {
			md.comb = func(a, b uint32) uint32 { return a*31 + b }
		}
		mb := NewMailbox[uint32](p, owner, md.comb)
		check := func(when string) {
			for v := range owner {
				got := mb.Inbox(VertexID(v))
				if !slices.Equal(got, md.inbox[v]) || mb.RawCount(VertexID(v)) != md.raw[v] {
					t.Fatalf("%s: vertex %d inbox %v raw %d, want %v raw %d", when, v, got, mb.RawCount(VertexID(v)), md.inbox[v], md.raw[v])
				}
			}
		}
		for round := 0; round < 4 && len(data) > 0; round++ {
			mb.Advance()
			for ops := next(16); ops > 0; ops-- {
				src, v, m := next(p), VertexID(next(n)), uint32(next(256))
				switch next(4) {
				case 0:
					mb.Send(src, v, m)
					md.send(src, v, m)
				case 1:
					dsts := []VertexID{v}
					for k := next(4); k > 0; k-- {
						dsts = append(dsts, VertexID(next(n)))
					}
					mb.SendAll(src, dsts, m)
					for _, d := range dsts {
						md.send(src, d, m)
					}
				case 2:
					mb.ResetVertex(v)
					md.inbox[v], md.raw[v] = nil, 0
					check("reset")
				case 3:
					msgs := make([]uint32, next(3))
					for i := range msgs {
						msgs[i] = uint32(next(256))
					}
					raw := int64(next(4))
					mb.LoadVertex(v, msgs, raw)
					md.inbox[v], md.raw[v] = nil, raw
					for _, x := range msgs {
						md.place(v, x)
					}
					check("load")
				}
			}
			for v := range owner {
				if len(md.inbox[v]) > 0 {
					mb.ResetVertex(VertexID(v))
					md.inbox[v], md.raw[v] = nil, 0
				}
			}
			var events []FaultEvent
			faults := make([][]FaultKind, p) // [dst][src]
			for dst := range faults {
				faults[dst] = make([]FaultKind, p)
				for src := range faults[dst] {
					switch next(6) {
					case 1:
						faults[dst][src] = FaultDropLane
						events = append(events, DropLane(round, src, dst))
					case 2:
						faults[dst][src] = FaultDupLane
						events = append(events, DupLane(round, src, dst))
					}
				}
			}
			inj := PlanOf(events...).NewInjector(p)
			for w := 0; w < p; w++ {
				var first []VertexID
				hook := func(v VertexID) { first = append(first, v) }
				var delivered, placements int64
				var dropped bool
				if inj == nil && next(2) == 0 {
					delivered, placements = mb.Deliver(w, hook)
				} else {
					delivered, placements, dropped = mb.DeliverFaulty(w, round, inj, hook)
				}
				wFirst, wDelivered, wPlacements, wDropped := md.deliver(w, faults[w])
				hooked := map[VertexID]bool{}
				for _, v := range first {
					if hooked[v] || md.raw[v] == 0 || owner[v] != int32(w) {
						t.Fatalf("round %d worker %d: first-mail hooks %v: vertex %d is repeated, received nothing, or is not owned", round, w, first, v)
					}
					hooked[v] = true
				}
				if !slices.Equal(first, wFirst) || delivered != wDelivered || placements != wPlacements || dropped != wDropped {
					t.Fatalf("round %d worker %d: hooks %v delivered %d placed %d dropped %v, want %v %d %d %v",
						round, w, first, delivered, placements, dropped, wFirst, wDelivered, wPlacements, wDropped)
				}
			}
			check("deliver")
		}
	})
}
