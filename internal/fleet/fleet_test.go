package fleet

import (
	"context"
	"testing"
	"time"
)

// cheapConfig returns a small, fast fleet for the robustness unit
// tests: pristine channels, tiny enrollment, short traces.
func cheapConfig(dies, shards, rounds int) Config {
	cfg := DefaultConfig()
	cfg.Dies = dies
	cfg.Shards = shards
	cfg.Rounds = rounds
	cfg.Prevalence = 0
	cfg.Severity = 0
	cfg.CaptureCycles = 8
	cfg.GoldenTraces = 4
	cfg.NullTraces = 4
	cfg.TickAverages = 2
	cfg.MinSamples = 2
	cfg.RankEvery = 16
	return cfg
}

// waitNoGoroutines polls the service's goroutine counter to zero:
// abandoned timed-out ticks are allowed to finish after Wait returns,
// but nothing may leak.
func waitNoGoroutines(t *testing.T, s *Service) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if s.Goroutines() == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("service leaked %d goroutines", s.Goroutines())
}

func TestServiceRunsToRoundBudget(t *testing.T) {
	s, err := New(cheapConfig(6, 2, 5))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(context.Background()); err == nil {
		t.Fatal("second Start did not fail")
	}
	st := s.Wait()
	if st.Rounds != 5 {
		t.Fatalf("rounds = %d, want 5", st.Rounds)
	}
	if want := uint64(6 * 5); st.Verdicts != want {
		t.Fatalf("verdicts = %d, want %d (dropped %d)", st.Verdicts, want, st.Dropped)
	}
	if st.Dropped != 0 || st.QueueLen != 0 {
		t.Fatalf("dropped=%d queue_len=%d after clean drain", st.Dropped, st.QueueLen)
	}
	if st.LiveShards != 2 || st.DeadShards != 0 || st.Crashes != 0 {
		t.Fatalf("shard accounting: %+v", st)
	}
	waitNoGoroutines(t, s)
}

func TestServiceGracefulShutdown(t *testing.T) {
	cfg := cheapConfig(6, 2, 0) // endless: only the context stops it
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := s.Start(ctx); err != nil {
		t.Fatal(err)
	}
	// Let it stream for a bit, then cancel and require a full drain.
	for deadline := time.Now().Add(10 * time.Second); ; {
		if s.Status().Verdicts > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no verdicts before shutdown")
		}
		time.Sleep(2 * time.Millisecond)
	}
	st := s.Close()
	if st.Verdicts == 0 {
		t.Fatal("no verdicts after shutdown drain")
	}
	if st.QueueLen != 0 {
		t.Fatalf("queue_len = %d after drain, want 0", st.QueueLen)
	}
	waitNoGoroutines(t, s)
}

func TestBackpressureShedsCounted(t *testing.T) {
	cfg := cheapConfig(8, 4, 6)
	cfg.QueueSize = 1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A deliberately slow consumer: the bounded queue must shed with a
	// counted drop instead of stalling producers or growing.
	s.hooks.stallAggregator = func(uint64) time.Duration { return 2 * time.Millisecond }
	if err := s.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := s.Wait()
	if st.Dropped == 0 {
		t.Fatal("no drops despite saturated queue")
	}
	// Conservation: every produced verdict was either aggregated or
	// counted as shed.
	if got, want := st.Verdicts+st.Dropped, uint64(8*6); got != want {
		t.Fatalf("verdicts+dropped = %d, want %d", got, want)
	}
	if st.Rounds != 6 {
		t.Fatalf("rounds = %d: producers stalled behind the slow consumer", st.Rounds)
	}
	waitNoGoroutines(t, s)
}

func TestSupervisorRestartsCrashedShard(t *testing.T) {
	cfg := cheapConfig(6, 2, 6)
	cfg.BackoffBase = time.Millisecond
	cfg.BackoffMax = 4 * time.Millisecond
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Shard 0 panics at rounds 1 and 3; the supervisor must restart it
	// and the shard must still finish its remaining rounds.
	s.hooks.crashShard = func(shard, round int) bool {
		return shard == 0 && (round == 1 || round == 3)
	}
	if err := s.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := s.Wait()
	if st.Crashes != 2 || st.Restarts != 2 {
		t.Fatalf("crashes=%d restarts=%d, want 2/2", st.Crashes, st.Restarts)
	}
	if st.DeadShards != 0 || st.LiveShards != 2 {
		t.Fatalf("dead=%d live=%d, want 0/2", st.DeadShards, st.LiveShards)
	}
	if st.Rounds != 6 {
		t.Fatalf("rounds = %d, want 6", st.Rounds)
	}
	// Shard 0's dies (0, 2, 4) lost the two poisoned rounds; shard 1's
	// saw all six.
	want := uint64(3*4 + 3*6)
	if st.Verdicts != want {
		t.Fatalf("verdicts = %d, want %d", st.Verdicts, want)
	}
	waitNoGoroutines(t, s)
}

func TestSupervisorRestartBudgetExhausted(t *testing.T) {
	cfg := cheapConfig(6, 3, 4)
	cfg.MaxRestarts = 2
	cfg.BackoffBase = time.Millisecond
	cfg.BackoffMax = 2 * time.Millisecond
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Shard 1 is poisoned beyond repair. It must die quietly after its
	// restart budget; the other shards keep streaming.
	s.hooks.crashShard = func(shard, round int) bool { return shard == 1 }
	if err := s.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := s.Wait()
	if st.DeadShards != 1 || st.LiveShards != 2 {
		t.Fatalf("dead=%d live=%d, want 1/2", st.DeadShards, st.LiveShards)
	}
	if st.Crashes != 3 || st.Restarts != 2 {
		t.Fatalf("crashes=%d restarts=%d, want 3/2", st.Crashes, st.Restarts)
	}
	// The two surviving shards cover 4 dies for all 4 rounds.
	if want := uint64(4 * 4); st.Verdicts != want {
		t.Fatalf("verdicts = %d, want %d", st.Verdicts, want)
	}
	waitNoGoroutines(t, s)
}

// healthyTickBudget returns a watchdog timeout no healthy tick of cfg
// comes near on this host: 20 times the slowest TickOnce over every die
// and round of a throwaway service built from cfg, and at least
// tickStallFloor. A budget from tick cost alone trips healthy dies when
// the host is loaded (or runs the race detector).
func healthyTickBudget(t *testing.T, cfg Config) time.Duration {
	t.Helper()
	probe, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var slowest time.Duration
	for round := 0; round < cfg.Rounds; round++ {
		for die := 0; die < cfg.Dies; die++ {
			start := time.Now()
			probe.TickOnce(die, round)
			slowest = max(slowest, time.Since(start))
		}
	}
	return max(20*slowest, tickStallFloor)
}

// tickStallFloor bounds the scheduler stalls a healthy tick may meet. A
// healthy tick that overruns the watchdog loses its verdict, and once
// the shard's other die is wedged its rounds come back to back, so the
// overrun tick still running three visits later quarantines its die.
// A 5 ms floor let a few stalls do both on a loaded 2-vCPU host.
const tickStallFloor = 100 * time.Millisecond

func TestTickTimeoutQuarantinesStalledDie(t *testing.T) {
	cfg := cheapConfig(4, 2, 10)
	cfg.TickTimeout = healthyTickBudget(t, cfg)
	cfg.QuarantineAfter = 3
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Die 2's capture wedges on every round — in deployment, a hung
	// sensor readout. Its shard must keep servicing its other dies and
	// the die must end up quarantined, not retried forever.
	stall := 10 * cfg.TickTimeout
	s.hooks.stallDie = func(die, round int) time.Duration {
		if die == 2 {
			return stall
		}
		return 0
	}
	if err := s.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := s.Wait()
	if st.Timeouts == 0 {
		t.Fatal("no timeouts recorded for the wedged die")
	}
	if !s.dies[2].quarantined.Load() {
		t.Fatal("wedged die not quarantined")
	}
	if st.Quarantined != 1 {
		t.Fatalf("quarantined = %d, want 1", st.Quarantined)
	}
	if st.Rounds != 10 {
		t.Fatalf("rounds = %d: the wedged die stalled its shard", st.Rounds)
	}
	// Healthy dies were never starved.
	if healthy := s.agg.st[0].count + s.agg.st[1].count + s.agg.st[3].count; healthy != 3*10 {
		t.Fatalf("healthy dies got %d verdicts, want 30", healthy)
	}
	waitNoGoroutines(t, s)
}

func TestFlatlinedDieQuarantined(t *testing.T) {
	cfg := cheapConfig(3, 1, 20)
	cfg.Severity = 1
	cfg.FlatlineRate = 1 // every die's coil breaks mid-run
	cfg.DriftSpan = 8    // breaks within the first 8 monitored rounds
	cfg.QuarantineAfter = 3
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := s.Wait()
	if st.Quarantined != 3 {
		t.Fatalf("quarantined = %d, want all 3 flatlined dies", st.Quarantined)
	}
	if len(s.Alarms()) != 0 {
		t.Fatalf("flatlined dies raised alarms: %+v", s.Alarms())
	}
	if st.Rejected == 0 {
		t.Fatal("flatline produced no health rejections")
	}
	waitNoGoroutines(t, s)
}

// TestDeterministicAcrossShards locks in the determinism contract: the
// same seed yields the same per-die statistics regardless of how the
// fleet is sharded (only shed verdicts may differ, and nothing is shed
// here).
func TestDeterministicAcrossShards(t *testing.T) {
	run := func(shards int) (*Service, Status) {
		cfg := cheapConfig(9, shards, 6)
		cfg.Severity = 1
		cfg.Prevalence = 0.5
		cfg.QueueSize = 4096
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		return s, s.Wait()
	}
	s1, st1 := run(1)
	s3, st3 := run(3)
	if st1.Verdicts != st3.Verdicts || st1.Infected != st3.Infected {
		t.Fatalf("verdicts/infected differ across shardings: %+v vs %+v", st1, st3)
	}
	for i := range s1.dies {
		a, b := s1.agg.st[i], s3.agg.st[i]
		if a.count != b.count || a.confirmed != b.confirmed || a.ewma != b.ewma {
			t.Fatalf("die %d stats differ across shardings: %+v vs %+v", i, a, b)
		}
		if s1.dies[i].Infected != s3.dies[i].Infected {
			t.Fatalf("die %d infection differs across shardings", i)
		}
	}
	waitNoGoroutines(t, s1)
	waitNoGoroutines(t, s3)
}
