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
	buf := make([]verdict, 4)
	if n := r.popBatch(buf); n != 3 || buf[0].die != 2 || buf[1].die != 3 || buf[2].die != 4 {
		t.Fatalf("popBatch = %d %v, want dies 2, 3, 4", n, buf[:n])
	}
}

func TestRingCloseDrains(t *testing.T) {
	r := newRing(4)
	r.pushBatch([]verdict{{die: 1}, {die: 2}})
	r.close()
	// A closed ring still hands out its backlog...
	buf := make([]verdict, 1)
	for want := 1; want <= 2; want++ {
		if n := r.popBatch(buf); n != 1 || buf[0].die != want {
			t.Fatalf("popBatch after close = %d %v, want die %d", n, buf[:n], want)
		}
	}
	// ...then reports exhaustion instead of blocking.
	if n := r.popBatch(buf); n != 0 {
		t.Fatalf("popBatch on drained closed ring = %d, want 0", n)
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
	done := make(chan int)
	go func() {
		done <- r.popBatch(make([]verdict, 2))
	}()
	r.close()
	if n := <-done; n != 0 {
		t.Fatalf("blocked popBatch returned %d after close of empty ring", n)
	}
}
