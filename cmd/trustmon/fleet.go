package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"emtrust/internal/fleet"
)

// fleetFlags carries the -fleet mode's knobs from main.
type fleetFlags struct {
	dies       int
	shards     int
	rounds     int
	duration   time.Duration
	prevalence float64
	severity   float64
	seed       int64
	httpAddr   string
}

// runFleet is the -fleet mode: enroll a simulated die population, run
// the sharded monitoring service until the round budget, the -duration
// deadline, or SIGINT/SIGTERM — whichever comes first — then drain
// in-flight verdicts and print the final fleet summary. Interruption is
// a normal shutdown, not an error: the process exits 0.
func runFleet(f fleetFlags) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if f.duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, f.duration)
		defer cancel()
	}

	cfg := fleet.DefaultConfig()
	cfg.Dies = f.dies
	cfg.Shards = f.shards
	cfg.Rounds = f.rounds
	cfg.Prevalence = f.prevalence
	cfg.Severity = f.severity
	cfg.Seed = f.seed

	log.Printf("enrolling %d dies on %d shards (prevalence %.1f%%, severity %.1f)...",
		cfg.Dies, cfg.Shards, 100*cfg.Prevalence, cfg.Severity)
	s, err := fleet.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := s.Start(ctx); err != nil {
		log.Fatal(err)
	}

	var srv *http.Server
	if f.httpAddr != "" {
		ln, err := net.Listen("tcp", f.httpAddr)
		if err != nil {
			s.Close()
			log.Fatal(err)
		}
		srv = &http.Server{Handler: s.Handler()}
		go func() {
			if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
				log.Printf("http: %v", err)
			}
		}()
		log.Printf("serving /status and /alarms on %s", ln.Addr())
	}

	// One status line per second while the fleet runs.
	heartbeat := make(chan struct{})
	go func() {
		t := time.NewTicker(time.Second)
		defer t.Stop()
		for {
			select {
			case <-heartbeat:
				return
			case <-t.C:
				st := s.Status()
				log.Printf("rounds %d  verdicts %d  dropped %d  queue %d/%d  alarms %d  quarantined %d  crashes %d",
					st.Rounds, st.Verdicts, st.Dropped, st.QueueLen, st.QueueCap,
					st.Alarms, st.Quarantined, st.Crashes)
			}
		}
	}()

	st := s.Wait()
	close(heartbeat)
	if srv != nil {
		srv.Close()
	}

	fmt.Printf("fleet of %d dies (%d infected by the fab): %d verdicts over %d rounds, %d shed, %d rejected\n",
		st.Dies, st.Infected, st.Verdicts, st.Rounds, st.Dropped, st.Rejected)
	fmt.Printf("supervision: %d crashes, %d restarts, %d/%d shards live; %d capture timeouts, %d dies quarantined\n",
		st.Crashes, st.Restarts, st.LiveShards, st.Shards, st.Timeouts, st.Quarantined)
	alarms := s.Alarms()
	fmt.Printf("alarm list (FDR %.0f%%): %d dies flagged\n", 100*st.FDR, len(alarms))
	for i, a := range alarms {
		if i >= 10 {
			fmt.Printf("  ... and %d more\n", len(alarms)-i)
			break
		}
		fmt.Printf("  die %4d  score %7.1f  p %.3g  (%d/%d rounds confirmed)\n",
			a.Die, a.Score, a.P, a.Confirmed, a.Verdicts)
	}
}
