package runtime

import (
	"reflect"
	"testing"
)

func TestFaultPlanDeterministicFromSeed(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		a := NewFaultPlan(seed).materialize(4)
		b := NewFaultPlan(seed).materialize(4)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: plans differ: %v vs %v", seed, a, b)
		}
		if len(a) == 0 {
			t.Fatalf("seed %d: empty schedule", seed)
		}
		for _, ev := range a {
			if ev.Worker < 0 || ev.Worker >= 4 || ev.Lane < 0 || ev.Lane >= 4 {
				t.Fatalf("seed %d: event out of worker range: %+v", seed, ev)
			}
		}
	}
}

func TestFaultPlanScalesToWorkerCount(t *testing.T) {
	p := PlanOf(DropLane(2, 7, 9), Crash(1))
	evs := p.materialize(3)
	if evs[0].Kind != FaultCrash || evs[0].Step != 1 {
		t.Fatalf("events not sorted by step: %v", evs)
	}
	if evs[1].Worker != 7%3 || evs[1].Lane != 9%3 {
		t.Fatalf("worker/lane not reduced modulo workers: %+v", evs[1])
	}
}

func TestInjectorEventsFireOnce(t *testing.T) {
	in := PlanOf(Crash(3), DropLane(2, 1, 0), DupLane(2, 0, 1), CorruptCheckpoint(1)).NewInjector(2)

	// Crash fires at the first barrier >= its step, exactly once.
	if _, ok := in.CrashAt(2); ok {
		t.Fatal("crash fired early")
	}
	if _, ok := in.CrashAt(5); !ok {
		t.Fatal("crash did not fire at step 5 (>= 3)")
	}
	if _, ok := in.CrashAt(5); ok {
		t.Fatal("crash fired twice")
	}

	// Lane faults match (src, dst) and fire once.
	if k := in.LaneFault(2, 0, 0); k != 0 {
		t.Fatalf("unexpected lane fault on (0,0): %v", k)
	}
	if k := in.LaneFault(2, 1, 0); k != FaultDropLane {
		t.Fatalf("want drop on (1,0), got %v", k)
	}
	if k := in.LaneFault(3, 1, 0); k != 0 {
		t.Fatal("drop fired twice")
	}
	if k := in.LaneFault(4, 0, 1); k != FaultDupLane {
		t.Fatalf("want dup on (0,1), got %v", k)
	}

	if !in.CorruptSave(1) {
		t.Fatal("corrupt-save did not fire")
	}
	if in.CorruptSave(9) {
		t.Fatal("corrupt-save fired twice")
	}

	c := in.Counts()
	want := FaultCounts{Crashes: 1, DroppedLanes: 1, DuplicatedLanes: 1, CorruptedCheckpoints: 1}
	if c != want {
		t.Fatalf("counts %+v, want %+v", c, want)
	}
	if len(in.Fired()) != 4 {
		t.Fatalf("fired %d events, want 4", len(in.Fired()))
	}
}

func TestNilInjectorIsSafe(t *testing.T) {
	var in *Injector
	if _, ok := in.CrashAt(0); ok {
		t.Fatal("nil injector crashed")
	}
	if in.LaneFault(0, 0, 0) != 0 || in.CorruptSave(0) {
		t.Fatal("nil injector injected")
	}
	var p *FaultPlan
	if p.NewInjector(4) != nil {
		t.Fatal("nil plan produced an injector")
	}
	if (&FaultPlan{}).NewInjector(4) != nil {
		t.Fatal("empty plan produced an injector")
	}
}

func TestCheckpointsCorruptionFallback(t *testing.T) {
	var cks Checkpoints[string]
	cks.Save(2, "gen2", true, false)
	cks.Save(4, "gen4", true, true) // written corrupt: silent until read

	chain, step, skipped, invalidated, ok := cks.Recover()
	if !ok || len(chain) != 1 || chain[0] != "gen2" || step != 2 || skipped != 1 || invalidated != 0 {
		t.Fatalf("Recover() = %v, %d, %d, %d, %v; want [gen2], 2, 1, 0, true", chain, step, skipped, invalidated, ok)
	}
	if cks.Saved() != 2 {
		t.Fatalf("Saved() = %d", cks.Saved())
	}

	// Both generations corrupt: fresh restart.
	var bad Checkpoints[string]
	bad.Save(2, "a", true, true)
	bad.Save(4, "b", true, true)
	if _, _, skipped, _, ok := bad.Recover(); ok || skipped != 2 {
		t.Fatalf("corrupt store recovered (skipped=%d ok=%v)", skipped, ok)
	}

	// Empty store: nothing to recover.
	var empty Checkpoints[int]
	if _, _, _, _, ok := empty.Recover(); ok {
		t.Fatal("empty store recovered")
	}
}

func TestMailboxDeliverFaulty(t *testing.T) {
	owner := []int32{0, 1}
	mb := NewMailbox[int](2, owner, nil)
	mb.Send(0, 1, 10)
	mb.Send(1, 1, 20)

	// Drop lane (0 -> 1): only worker 1's own lane arrives.
	in := PlanOf(DropLane(0, 0, 1)).NewInjector(2)
	delivered, _, dropped := mb.DeliverFaulty(1, 0, in, nil)
	if !dropped {
		t.Fatal("drop not reported")
	}
	if delivered != 1 || len(mb.Inbox(1)) != 1 || mb.Inbox(1)[0] != 20 {
		t.Fatalf("inbox after drop: %v (delivered %d)", mb.Inbox(1), delivered)
	}
	mb.ResetVertex(1)

	// Duplicate lane: the replayed batch is rejected, delivery stays
	// exactly-once.
	mb.Send(0, 1, 30)
	in = PlanOf(DupLane(0, 0, 1)).NewInjector(2)
	delivered, _, dropped = mb.DeliverFaulty(1, 0, in, nil)
	if dropped || delivered != 1 || len(mb.Inbox(1)) != 1 {
		t.Fatalf("dup changed delivery: inbox %v delivered %d dropped %v", mb.Inbox(1), delivered, dropped)
	}
	if c := in.Counts(); c.DuplicatedLanes != 1 {
		t.Fatalf("dup not counted: %+v", c)
	}
}

func TestFIFOSnapshotLoad(t *testing.T) {
	q := NewFIFO(8)
	q.Push(3)
	q.Push(1)
	q.Push(5)
	if _, ok := q.Pop(); !ok {
		t.Fatal("pop failed")
	}
	snap := q.SnapshotInto(make([]VertexID, q.Len()))
	if !reflect.DeepEqual(snap, []VertexID{1, 5}) {
		t.Fatalf("snapshot = %v", snap)
	}
	q.Push(7)
	q.Load(snap)
	if q.Len() != 2 {
		t.Fatalf("len after load = %d", q.Len())
	}
	if v, _ := q.Pop(); v != 1 {
		t.Fatalf("first after load = %d", v)
	}
	if v, _ := q.Pop(); v != 5 {
		t.Fatalf("second after load = %d", v)
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("queue not empty after load+pops")
	}
}

func TestCheckpointsDeltaChains(t *testing.T) {
	// Chain reconstruction: the newest generation is full frame 1 plus
	// deltas 2 and 3, returned base-first for in-order application.
	var cks Checkpoints[string]
	cks.Save(1, "f1", true, false)
	cks.Save(2, "d2", false, false)
	cks.Save(3, "d3", false, false)
	chain, step, skipped, invalidated, ok := cks.Recover()
	if !ok || step != 3 || skipped != 0 || invalidated != 0 {
		t.Fatalf("Recover() = %v, %d, %d, %d, %v; want chain at 3", chain, step, skipped, invalidated, ok)
	}
	if want := []string{"f1", "d2", "d3"}; !reflect.DeepEqual(chain, want) {
		t.Fatalf("chain = %v, want %v", chain, want)
	}
	if cks.Saved() != 3 || cks.DeltaSaved() != 2 {
		t.Fatalf("Saved/DeltaSaved = %d/%d, want 3/2", cks.Saved(), cks.DeltaSaved())
	}

	// Corrupt mid-chain delta: counted once, the dependent delta above
	// it invalidated, recovery falls back to the base full frame.
	var mid Checkpoints[string]
	mid.Save(1, "f1", true, false)
	mid.Save(2, "d2", false, true) // silent damage
	mid.Save(3, "d3", false, false)
	chain, step, skipped, invalidated, ok = mid.Recover()
	if !ok || step != 1 || skipped != 1 || invalidated != 1 {
		t.Fatalf("mid-chain corruption: Recover() = %v, %d, %d, %d, %v; want fallback to 1 with 1 skipped, 1 invalidated",
			chain, step, skipped, invalidated, ok)
	}
	if want := []string{"f1"}; !reflect.DeepEqual(chain, want) {
		t.Fatalf("fallback chain = %v, want %v", chain, want)
	}

	// Corrupt base full frame: the whole generation collapses — both
	// dependents invalidated, no readable frame left.
	var base Checkpoints[string]
	base.Save(1, "f1", true, true)
	base.Save(2, "d2", false, false)
	base.Save(3, "d3", false, false)
	if _, _, skipped, invalidated, ok := base.Recover(); ok || skipped != 1 || invalidated != 2 {
		t.Fatalf("corrupt base: skipped=%d invalidated=%d ok=%v; want 1, 2, false", skipped, invalidated, ok)
	}

	// A second full generation survives the collapse of the newer one.
	var two Checkpoints[string]
	two.Save(1, "f1", true, false)
	two.Save(2, "d2", false, false)
	two.Save(3, "f3", true, false)
	two.Save(4, "d4", false, true)
	two.Save(5, "d5", false, false)
	chain, step, skipped, invalidated, ok = two.Recover()
	if !ok || step != 3 || skipped != 1 || invalidated != 1 {
		t.Fatalf("two generations: Recover() = %v, %d, %d, %d, %v; want fallback to 3", chain, step, skipped, invalidated, ok)
	}
	if want := []string{"f3"}; !reflect.DeepEqual(chain, want) {
		t.Fatalf("fallback chain = %v, want %v", chain, want)
	}
}

func TestCheckpointsPruneOnFull(t *testing.T) {
	// A new full generation retires everything older than the previous
	// full frame: after fulls at 1, 4, and 7, the store must have
	// dropped frames 1–3, and recovery after losing generation 7 lands
	// on the 4-5-6 chain, never on the retired one.
	var cks Checkpoints[string]
	cks.Save(1, "f1", true, false)
	cks.Save(2, "d2", false, false)
	cks.Save(3, "d3", false, false)
	cks.Save(4, "f4", true, false)
	cks.Save(5, "d5", false, false)
	cks.Save(6, "d6", false, false)
	cks.Save(7, "f7", true, true) // corrupt: forces fallback across generations
	if cks.Saved() != 7 || cks.DeltaSaved() != 4 {
		t.Fatalf("Saved/DeltaSaved = %d/%d, want 7/4", cks.Saved(), cks.DeltaSaved())
	}
	chain, step, skipped, invalidated, ok := cks.Recover()
	if !ok || step != 6 || skipped != 1 || invalidated != 0 {
		t.Fatalf("Recover() = %v, %d, %d, %d, %v; want chain at 6", chain, step, skipped, invalidated, ok)
	}
	if want := []string{"f4", "d5", "d6"}; !reflect.DeepEqual(chain, want) {
		t.Fatalf("chain = %v, want %v", chain, want)
	}

	// Headless deltas: if pruning (or damage) leaves deltas with no
	// readable full base below them, they are invalidated, not applied.
	var headless Checkpoints[string]
	headless.Save(2, "d2", false, false)
	headless.Save(3, "d3", false, false)
	if _, _, skipped, invalidated, ok := headless.Recover(); ok || skipped != 0 || invalidated != 2 {
		t.Fatalf("headless deltas: skipped=%d invalidated=%d ok=%v; want 0, 2, false", skipped, invalidated, ok)
	}
}
