package fleet

import "testing"

func TestRingFIFOAndDropOldest(t *testing.T) {
	r := newRing(3)
	if shed := r.pushBatch([]verdict{{die: 0}, {die: 1}, {die: 2}}); shed != 0 {
		t.Fatalf("fill shed %d", shed)
	}
	if depth, capacity, dropped := r.stats(); depth != 3 || capacity != 3 || dropped != 0 {
		t.Fatalf("stats after fill: depth=%d cap=%d dropped=%d", depth, capacity, dropped)
	}
	// Overflow: the two oldest are evicted, both counted.
	if shed := r.pushBatch([]verdict{{die: 3}, {die: 4}}); shed != 2 {
		t.Fatalf("overflow shed %d, want 2", shed)
	}
	if _, _, dropped := r.stats(); dropped != 2 {
		t.Fatalf("dropped = %d, want 2", dropped)
	}
	for want := 2; want <= 4; want++ {
		v, ok := r.pop()
		if !ok || v.die != want {
			t.Fatalf("pop = (%v, %v), want die %d", v.die, ok, want)
		}
	}
}

func TestRingCloseDrains(t *testing.T) {
	r := newRing(4)
	r.pushBatch([]verdict{{die: 1}, {die: 2}})
	r.close()
	// A closed ring still hands out its backlog...
	if v, ok := r.pop(); !ok || v.die != 1 {
		t.Fatalf("pop after close = (%v, %v)", v.die, ok)
	}
	if v, ok := r.pop(); !ok || v.die != 2 {
		t.Fatalf("pop after close = (%v, %v)", v.die, ok)
	}
	// ...then reports exhaustion instead of blocking.
	if _, ok := r.pop(); ok {
		t.Fatal("pop on drained closed ring reported ok")
	}
	// Pushes after close are shed and counted, not leaked.
	if shed := r.pushBatch([]verdict{{die: 3}}); shed != 1 {
		t.Fatalf("post-close push shed %d, want 1", shed)
	}
	if _, _, dropped := r.stats(); dropped != 1 {
		t.Fatalf("dropped after post-close push = %d, want 1", dropped)
	}
}

func TestRingCapacityClamp(t *testing.T) {
	r := newRing(0)
	if _, capacity, _ := r.stats(); capacity != 1 {
		t.Fatalf("capacity = %d, want clamp to 1", capacity)
	}
}

func TestRingUnblocksConsumerOnClose(t *testing.T) {
	r := newRing(2)
	done := make(chan bool)
	go func() {
		_, ok := r.pop()
		done <- ok
	}()
	r.close()
	if ok := <-done; ok {
		t.Fatal("blocked pop returned ok after close of empty ring")
	}
}
