package fleet

import (
	"context"
	"testing"
	"time"

	"emtrust/internal/frand"
)

// TestFleetAcceptance is the ISSUE-7 chaos acceptance run: a
// 1000-die fleet at 1% Trojan prevalence and severity-2 channel
// degradation, with a tenth of shard rounds panicking through the test
// hook, one die's capture wedged solid, and the aggregator stalled
// until the bounded queue sheds. The service must keep running through
// all of it: every crashed shard restarted, drops counted, the wedged
// die quarantined — and the alarm list must still flag at least 90% of
// the infected dies with at most 5% false discovery.
func TestFleetAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("acceptance run is heavy; skipped in -short")
	}
	cfg := DefaultConfig()
	cfg.Dies = 1000
	cfg.Shards = 8
	cfg.Prevalence = 0.01
	cfg.Severity = 2
	cfg.Rounds = 24
	cfg.TickAverages = 4
	cfg.GoldenTraces = 8
	cfg.NullTraces = 12
	cfg.QueueSize = 256
	cfg.MinSamples = 6
	// Generous relative to an honest tick (sub-millisecond of CPU) so
	// scheduler jitter on a loaded box cannot fake a wedged die, but
	// far below the injected 600ms wedge.
	cfg.TickTimeout = 150 * time.Millisecond
	cfg.QuarantineAfter = 4
	cfg.BackoffBase = time.Millisecond
	cfg.BackoffMax = 8 * time.Millisecond

	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	infected := s.InfectedDies()
	if len(infected) < 5 {
		t.Fatalf("seed produced only %d infected dies; acceptance needs a real cohort", len(infected))
	}

	// Chaos, all deterministic in (shard, round) / (die, round):
	// roughly 10% of shard rounds panic...
	s.hooks.crashShard = func(shard, round int) bool {
		return frand.SplitMix64(uint64(shard)<<32|uint64(round))%10 == 0
	}
	// ...one clean die's capture wedges solid from round 3 on...
	wedged := -1
	for _, d := range s.dies {
		if !d.Infected && !d.Flatlined {
			wedged = d.ID
			break
		}
	}
	s.hooks.stallDie = func(die, round int) time.Duration {
		if die == wedged && round >= 3 {
			return 600 * time.Millisecond
		}
		return 0
	}
	// ...and the aggregator stalls until the queue saturates and sheds
	// its first verdict, then recovers. The stall must be a transient,
	// not a steady state: under sustained saturation drop-oldest evicts
	// whatever was pushed first, which systematically starves the
	// low-numbered dies of every shard below MinSamples. Keying the
	// stall off the shed count (rather than a fixed processed count)
	// makes the transient's depth independent of how fast the tick path
	// runs — a fixed count calibrated for one tick speed turns into a
	// fleet-wide blackout when the ticks get faster.
	s.hooks.stallAggregator = func(processed uint64) time.Duration {
		if _, _, dropped := s.queue.stats(); dropped == 0 {
			return 500 * time.Microsecond
		}
		return 0
	}

	if err := s.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := s.Wait()

	// Robustness: the service survived the chaos.
	if st.Crashes == 0 {
		t.Fatal("chaos hook produced no crashes")
	}
	if st.Restarts != st.Crashes {
		t.Fatalf("crashes=%d restarts=%d: not every crashed shard was restarted", st.Crashes, st.Restarts)
	}
	if st.DeadShards != 0 || st.LiveShards != cfg.Shards {
		t.Fatalf("dead=%d live=%d: a shard exhausted its restart budget", st.DeadShards, st.LiveShards)
	}
	if st.Rounds != int64(cfg.Rounds) {
		t.Fatalf("rounds = %d, want %d", st.Rounds, cfg.Rounds)
	}
	if st.Dropped == 0 {
		t.Fatal("saturated queue shed nothing — backpressure path not exercised")
	}
	if st.Timeouts == 0 {
		t.Fatal("wedged die produced no capture timeouts")
	}
	if !s.dies[wedged].quarantined.Load() {
		t.Fatalf("wedged die %d not quarantined", wedged)
	}

	// Detection: >=90% recall, <=5% false discovery.
	alarms := s.Alarms()
	isInfected := make(map[int]bool, len(infected))
	for _, id := range infected {
		isInfected[id] = true
	}
	hits, falses := 0, 0
	for _, a := range alarms {
		if isInfected[a.Die] {
			hits++
		} else {
			falses++
		}
	}
	t.Logf("infected=%d alarms=%d hits=%d falses=%d dropped=%d crashes=%d quarantined=%d",
		len(infected), len(alarms), hits, falses, st.Dropped, st.Crashes, st.Quarantined)
	if 10*hits < 9*len(infected) {
		alarmed := make(map[int]bool, len(alarms))
		for _, a := range alarms {
			alarmed[a.Die] = true
		}
		for _, id := range infected {
			if !alarmed[id] {
				st := &s.agg.st[id]
				t.Logf("missed infected die %d: count=%d confirmed=%d ewma=%.2f quarantined=%v",
					id, st.count, st.confirmed, st.ewma, s.dies[id].quarantined.Load())
			}
		}
		t.Fatalf("recall %d/%d below 90%% (alarms: %+v)", hits, len(infected), alarms)
	}
	if len(alarms) > 0 && 20*falses > len(alarms) {
		t.Fatalf("false discovery %d/%d above 5%%", falses, len(alarms))
	}

	// Graceful end: everything drained, nothing leaked.
	if st.QueueLen != 0 {
		t.Fatalf("queue_len = %d after drain", st.QueueLen)
	}
	waitNoGoroutines(t, s)
}
