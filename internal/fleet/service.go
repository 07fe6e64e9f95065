package fleet

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"emtrust/internal/parallel"
)

// Service is the running fleet: a population of simulated dies, sharded
// monitor workers, their supervisors, and the aggregator. Build with
// New, run with Start, stop with Close (or cancel the Start context);
// Status and Alarms are safe from any goroutine while running.
type Service struct {
	cfg    Config
	pop    *Population
	dies   []*Die
	shards []*shardState
	queue  *ring
	agg    *aggregator

	ctx     context.Context
	cancel  context.CancelFunc
	started atomic.Bool

	producers sync.WaitGroup
	done      chan struct{}

	// goroutines counts every live goroutine the service spawned —
	// including abandoned timed-out ticks — so shutdown tests can
	// assert nothing leaks.
	goroutines atomic.Int64
	timeouts   atomic.Uint64
	start      time.Time

	// hooks inject faults for the chaos tests (in-package only).
	hooks struct {
		// crashShard panics the shard at the top of the given round.
		crashShard func(shard, round int) bool
		// stallDie delays the given die's tick (exercises the capture
		// timeout and quarantine paths).
		stallDie func(die, round int) time.Duration
		// stallAggregator delays the aggregator after the given number
		// of processed verdicts (saturates the queue).
		stallAggregator func(processed uint64) time.Duration
	}
}

// timeoutStreakFactor scales QuarantineAfter into the soft-timeout
// streak threshold: watchdog overruns that each completed before the
// next visit only quarantine after this many times the hard-evidence
// count, because any single one is indistinguishable from scheduler
// jitter on an oversubscribed host.
const timeoutStreakFactor = 4

// shardBatch caps a shard's local verdict batch; batches flush to the
// ring in one lock acquisition at this size and at every sweep end.
// aggBatch sizes the aggregator's drain buffer.
const (
	shardBatch = 64
	aggBatch   = 256
)

// shardState is one worker's slice of the fleet plus its supervision
// counters. runner, timer, and batch are touched only by the shard's
// own goroutine.
type shardState struct {
	id       int
	dies     []*Die
	round    atomic.Int64
	crashes  atomic.Int64
	restarts atomic.Int64
	dead     atomic.Bool
	running  atomic.Bool
	// runner is the shard's persistent watchdog worker (created on
	// first timed tick, replaced when abandoned on a timeout); timer is
	// the reused watchdog timer; batch is the sweep-local verdict
	// buffer flushed into the ring in bulk. congested is set when the
	// last flush shed verdicts: while it holds, the shard flushes
	// per-verdict so drop-oldest thins the stream as uniformly as the
	// unbatched path did, instead of evicting contiguous sweep runs.
	runner    *tickRunner
	timer     *time.Timer
	batch     []verdict
	congested bool
}

// tickRunner is a persistent goroutine the shard hands timed ticks to,
// replacing a per-tick spawn. Its done slot is buffered so a runner
// abandoned on timeout can deliver its late verdict into the void,
// clear the die's busy flag, and exit.
type tickRunner struct {
	req  chan tickReq
	done chan verdict // capacity 1
	exit chan struct{}
}

type tickReq struct {
	die   *Die
	round int
	stall time.Duration
}

// New builds the population and enrolls every die. Enrollment is the
// expensive part (per-die fingerprint fitting); it runs sharded across
// the worker pool and is deterministic per die.
func New(cfg Config) (*Service, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	pop, err := newPopulation(cfg)
	if err != nil {
		return nil, err
	}
	s := &Service{cfg: cfg, pop: pop, dies: make([]*Die, cfg.Dies), done: make(chan struct{})}
	if err := parallel.For(cfg.Dies, func(i int) error {
		d, err := pop.spawn(i)
		if err != nil {
			return err
		}
		s.dies[i] = d
		return nil
	}); err != nil {
		return nil, err
	}
	s.shards = make([]*shardState, cfg.Shards)
	for i := range s.shards {
		s.shards[i] = &shardState{id: i}
	}
	for i, d := range s.dies {
		st := s.shards[i%cfg.Shards]
		st.dies = append(st.dies, d)
	}
	s.queue = newRing(cfg.QueueSize)
	s.agg = newAggregator(cfg, s.dies)
	return s, nil
}

// Config returns the effective (defaulted) configuration.
func (s *Service) Config() Config { return s.cfg }

// InfectedDies returns the ground-truth infected die IDs (the simulated
// fab's secret, for evaluating the alarm list — the detectors never see
// it).
func (s *Service) InfectedDies() []int {
	var out []int
	for _, d := range s.dies {
		if d.Infected {
			out = append(out, d.ID)
		}
	}
	return out
}

// Goroutines returns the number of live service-spawned goroutines.
func (s *Service) Goroutines() int64 { return s.goroutines.Load() }

// Start launches the shards, supervisors, and aggregator. The service
// stops when ctx is cancelled or, with cfg.Rounds > 0, when every shard
// finishes its rounds; either way in-flight verdicts are drained before
// Wait returns.
func (s *Service) Start(ctx context.Context) error {
	if !s.started.CompareAndSwap(false, true) {
		return fmt.Errorf("fleet: service already started")
	}
	s.ctx, s.cancel = context.WithCancel(ctx)
	s.start = time.Now()
	for _, st := range s.shards {
		s.producers.Add(1)
		st := st
		s.spawn(func() {
			defer s.producers.Done()
			s.superviseShard(st)
		})
	}
	// Closer: once every producer is done, close the queue so the
	// aggregator drains the remainder and exits — the graceful-shutdown
	// drain path.
	s.spawn(func() {
		s.producers.Wait()
		s.queue.close()
	})
	s.spawn(func() {
		defer close(s.done)
		buf := make([]verdict, aggBatch)
		stall := s.hooks.stallAggregator
		if stall != nil {
			// Chaos path: the stall hook paces one verdict at a time so
			// the queue saturates deterministically.
			buf = buf[:1]
		}
		for {
			n := s.queue.popBatch(buf)
			if n == 0 {
				return
			}
			if stall != nil {
				time.Sleep(stall(s.agg.processedApprox()))
			}
			s.agg.ingestBatch(buf[:n])
		}
	})
	return nil
}

// spawn runs fn on a counted goroutine (see Goroutines).
func (s *Service) spawn(fn func()) {
	s.goroutines.Add(1)
	go func() {
		defer s.goroutines.Add(-1)
		fn()
	}()
}

// Wait blocks until the service has stopped and the verdict stream is
// fully drained, then returns the final status.
func (s *Service) Wait() Status {
	<-s.done
	return s.Status()
}

// Close cancels the service and waits for the drain.
func (s *Service) Close() Status {
	if s.cancel != nil {
		s.cancel()
	}
	return s.Wait()
}

// superviseShard runs one shard under panic recovery, restarting it
// with exponential backoff until the restart budget is exhausted. A
// shard that returns cleanly (context cancelled or rounds finished) is
// not restarted.
func (s *Service) superviseShard(st *shardState) {
	defer st.closeRunner()
	for {
		panicked := s.runShardOnce(st)
		if !panicked {
			return
		}
		st.crashes.Add(1)
		n := st.restarts.Load()
		if n >= int64(s.cfg.MaxRestarts) {
			// Budget exhausted: the shard stays down and its dies go
			// dark. Degraded, deliberately non-fatal — the rest of the
			// fleet keeps streaming.
			st.dead.Store(true)
			return
		}
		st.restarts.Add(1)
		backoff := s.cfg.BackoffBase << uint(n)
		if backoff > s.cfg.BackoffMax || backoff <= 0 {
			backoff = s.cfg.BackoffMax
		}
		select {
		case <-s.ctx.Done():
			return
		case <-time.After(backoff):
		}
	}
}

// runShardOnce ticks the shard's dies round-robin until the context is
// cancelled or the round budget is reached. A panic anywhere in the
// round is recovered, the poisoned round is skipped, and the supervisor
// decides whether to restart.
func (s *Service) runShardOnce(st *shardState) (panicked bool) {
	st.running.Store(true)
	defer st.running.Store(false)
	defer func() {
		if r := recover(); r != nil {
			panicked = true
			// Skip the round that poisoned us: re-running it would hit
			// the same deterministic fault forever.
			st.round.Add(1)
		}
	}()
	if st.batch == nil {
		st.batch = make([]verdict, 0, shardBatch)
	}
	// Registered after the recover defer so it runs first (LIFO): the
	// verdicts produced before a panic are delivered, exactly as the
	// unbatched path delivered them one by one.
	defer st.flush(s.queue)
	for {
		round := int(st.round.Load())
		if s.cfg.Rounds > 0 && round >= s.cfg.Rounds {
			return false
		}
		select {
		case <-s.ctx.Done():
			return false
		default:
		}
		if h := s.hooks.crashShard; h != nil && h(st.id, round) {
			panic(fmt.Sprintf("fleet: injected crash in shard %d round %d", st.id, round))
		}
		// Rotate the sweep's starting die each round: the queue sheds
		// oldest-first under overload, and with a fixed sweep order the
		// same front-of-sweep dies would be the oldest in the queue
		// every single round — systematically starved below MinSamples
		// while the back of the sweep loses nothing. Rotation turns
		// positional starvation into uniform thinning, which is what
		// "degrade statistics gracefully" has to mean per die, not just
		// in aggregate.
		n := len(st.dies)
		for i := 0; i < n; i++ {
			d := st.dies[(i+round)%n]
			if d.quarantined.Load() {
				continue
			}
			v, ok, stuck := s.tickDie(st, d, round)
			// Quarantine evidence comes in two grades. Hard: health
			// rejects and still-stuck visits (the previous tick hadn't
			// finished a full round later) feed consecutiveBad. Soft: a
			// tick that overran the watchdog but completed before the
			// shard came back is usually scheduler jitter on a loaded
			// host, so a single one proves nothing — but a die whose
			// every tick overruns, with no successful verdict in
			// between, is wedged even if each tick eventually finishes;
			// the soft streak quarantines too, at timeoutStreakFactor
			// times the hard threshold. A good verdict resets both.
			if stuck || (ok && v.rejected) {
				d.consecutiveBad++
			}
			if !ok {
				d.consecutiveTimeouts++
			}
			if ok && !v.rejected {
				d.consecutiveBad = 0
				d.consecutiveTimeouts = 0
			}
			if d.consecutiveBad >= s.cfg.QuarantineAfter ||
				d.consecutiveTimeouts >= timeoutStreakFactor*s.cfg.QuarantineAfter {
				// The die is unusable (dead coil, stuck capture): take
				// it out of the monitored set so it neither stalls the
				// shard nor pollutes the fleet statistics. A
				// maintenance event, not a Trojan.
				d.quarantined.Store(true)
			}
			if ok {
				st.batch = append(st.batch, v)
				if st.congested || len(st.batch) == shardBatch {
					st.flush(s.queue)
				}
			}
		}
		st.flush(s.queue)
		st.round.Add(1)
	}
}

// flush delivers the shard's batched verdicts into the ring in one
// lock acquisition and resets the batch, recording whether the ring is
// shedding (the congestion hysteresis: shed → per-verdict flushes,
// clean flush → back to bulk). A shedding flush also yields the
// scheduler slot: drop-oldest must never block a producer, but on an
// oversubscribed host the aggregator can sit runnable-but-unscheduled
// for a whole preemption slice while shards overflow the ring — a
// yield hands it the core and turns scheduler-induced shedding back
// into genuine overload shedding.
func (st *shardState) flush(q *ring) {
	if len(st.batch) == 0 {
		return
	}
	st.congested = q.pushBatch(st.batch) > 0
	st.batch = st.batch[:0]
	if st.congested {
		runtime.Gosched()
	}
}

// closeRunner retires the shard's watchdog worker (if any) and stops
// its timer, so Goroutines drains to zero after shutdown. The current
// runner is always idle here: tickDie either received its result or
// already abandoned and detached it.
func (st *shardState) closeRunner() {
	if r := st.runner; r != nil {
		st.runner = nil
		close(r.req)
		<-r.exit
	}
	if st.timer != nil {
		st.timer.Stop()
	}
}

// tickDie runs one die's round, under the capture watchdog when
// configured. On timeout the die's tick keeps running on an abandoned
// (counted) goroutine and the die is skipped until it completes — one
// wedged die costs its shard at most TickTimeout per round, never a
// stall. The stuck result distinguishes the two failure grades: a
// fresh timeout (watchdog fired this round) is soft — the tick may
// complete moments later — while finding the previous round's tick
// STILL running a full round later is the hard signature of a wedged
// capture, and only that grade feeds the quarantine streak.
func (s *Service) tickDie(st *shardState, d *Die, round int) (v verdict, ok, stuck bool) {
	stall := time.Duration(0)
	if h := s.hooks.stallDie; h != nil {
		stall = h(d.ID, round)
	}
	if s.cfg.TickTimeout <= 0 {
		if stall > 0 {
			time.Sleep(stall)
		}
		return d.tick(round), true, false
	}
	if !d.busy.CompareAndSwap(false, true) {
		// A previous timed-out tick is still running; skip this round
		// rather than racing its state.
		s.timeouts.Add(1)
		return verdict{}, false, true
	}
	r := st.runner
	if r == nil {
		r = s.newTickRunner()
		st.runner = r
	}
	r.req <- tickReq{die: d, round: round, stall: stall}
	if st.timer == nil {
		st.timer = time.NewTimer(s.cfg.TickTimeout)
	} else {
		// The timer is always quiescent here: both arms below leave its
		// channel drained.
		st.timer.Reset(s.cfg.TickTimeout)
	}
	select {
	case v := <-r.done:
		if !st.timer.Stop() {
			<-st.timer.C
		}
		return v, true, false
	case <-st.timer.C:
		s.timeouts.Add(1)
		// Abandon the runner: it finishes the tick on its own counted
		// goroutine, parks the late verdict in its buffered done slot,
		// clears the die's busy flag, and exits. The shard gets a fresh
		// runner on the next timed tick.
		close(r.req)
		st.runner = nil
		return verdict{}, false, false
	}
}

// newTickRunner spawns a shard's persistent watchdog worker: it loops
// on tick requests so the no-timeout happy path costs a channel
// round-trip instead of a goroutine spawn plus timer allocation.
func (s *Service) newTickRunner() *tickRunner {
	r := &tickRunner{req: make(chan tickReq), done: make(chan verdict, 1), exit: make(chan struct{})}
	s.spawn(func() {
		defer close(r.exit)
		for req := range r.req {
			if req.stall > 0 {
				time.Sleep(req.stall)
			}
			v := req.die.tick(req.round)
			req.die.busy.Store(false)
			r.done <- v
		}
	})
	return r
}

// processedApprox reads the aggregator's processed counter for the
// stall hook without taking the snapshot path or any lock.
func (a *aggregator) processedApprox() uint64 {
	return a.processed.Load()
}

// Status is the service's machine-readable health summary, served on
// the /status endpoint. Field names are a stable schema (golden-tested)
// — downstream scrapers depend on them.
type Status struct {
	Dies        int     `json:"dies"`
	Infected    int     `json:"infected"`
	Shards      int     `json:"shards"`
	LiveShards  int     `json:"live_shards"`
	DeadShards  int     `json:"dead_shards"`
	Crashes     int64   `json:"crashes"`
	Restarts    int64   `json:"restarts"`
	Rounds      int64   `json:"rounds"`
	Verdicts    uint64  `json:"verdicts"`
	Dropped     uint64  `json:"dropped"`
	Rejected    uint64  `json:"rejected"`
	Confirmed   uint64  `json:"confirmed"`
	Timeouts    uint64  `json:"timeouts"`
	Quarantined int     `json:"quarantined"`
	QueueLen    int     `json:"queue_len"`
	QueueCap    int     `json:"queue_cap"`
	Eligible    int     `json:"eligible"`
	CommonMode  float64 `json:"common_mode"`
	FleetSigma  float64 `json:"fleet_sigma"`
	Alarms      int     `json:"alarms"`
	FDR         float64 `json:"fdr_q"`
	PThreshold  float64 `json:"p_threshold"`
	UptimeSec   float64 `json:"uptime_sec"`
}

// Status assembles the current service status. Safe from any goroutine.
func (s *Service) Status() Status {
	processed, rejected, confirmed, rank, fleetSig := s.agg.snapshot()
	depth, capacity, dropped := s.queue.stats()
	st := Status{
		Dies:       len(s.dies),
		Shards:     len(s.shards),
		Verdicts:   processed,
		Dropped:    dropped,
		Rejected:   rejected,
		Confirmed:  confirmed,
		Timeouts:   s.timeouts.Load(),
		QueueLen:   depth,
		QueueCap:   capacity,
		Eligible:   rank.Eligible,
		CommonMode: rank.CommonMode,
		FleetSigma: fleetSig,
		FDR:        fdr,
		PThreshold: rank.Threshold,
	}
	if !s.start.IsZero() {
		st.UptimeSec = time.Since(s.start).Seconds()
	}
	for _, d := range s.dies {
		if d.Infected {
			st.Infected++
		}
		if d.quarantined.Load() {
			st.Quarantined++
		}
	}
	st.Alarms = len(s.agg.alarms())
	for _, sh := range s.shards {
		st.Crashes += sh.crashes.Load()
		st.Restarts += sh.restarts.Load()
		if sh.dead.Load() {
			st.DeadShards++
		} else {
			st.LiveShards++
		}
		if r := sh.round.Load(); r > st.Rounds {
			st.Rounds = r
		}
	}
	return st
}

// Alarms returns the current FDR-controlled alarm list, most suspicious
// first. Safe from any goroutine.
func (s *Service) Alarms() []Alarm { return s.agg.alarms() }

// TickOnce synchronously runs one capture-and-evaluate tick of the
// given die at the given round, bypassing the shard workers, watchdog,
// and verdict queue. It exists so benchmarks and allocation gates can
// measure the bare tick path; the production path drives ticks through
// Start. Not safe concurrently with a started service — the tick
// mutates the die's reusable acquisition and evaluation buffers.
func (s *Service) TickOnce(die, round int) {
	s.dies[die].tick(round)
}
