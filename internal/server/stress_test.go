package server

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"scisparql/internal/engine"
	"scisparql/internal/ssdmclient"
)

// TestStressCancellationAndShutdown fires slow queries, per-request
// deadlines, client-side cancellations and a concurrent graceful
// Shutdown at one server, under -race in CI. The point is not any
// single response but that the process stays healthy the whole time:
// no panic, no deadlock, every client call returns, and Shutdown
// completes within its drain window.
func TestStressCancellationAndShutdown(t *testing.T) {
	srv, connect := startBigServer(t, 200)

	var wg sync.WaitGroup
	unexpected := make(chan error, 64)
	report := func(err error) {
		select {
		case unexpected <- err:
		default:
		}
	}
	// Errors are the norm under this chaos (guard trips, cancellations,
	// shutdown refusals, torn-down connections); only impossible
	// outcomes are reported.

	// Slow queries under tight per-request deadlines.
	for i := 0; i < 4; i++ {
		cl := connect()
		wg.Add(1)
		go func(cl *ssdmclient.Client) {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				_, err := cl.QueryGuarded(context.Background(), crossProduct3,
					engine.Limits{Timeout: 20 * time.Millisecond})
				if err == nil {
					report(fmt.Errorf("runaway query completed"))
					return
				}
			}
		}(cl)
	}
	// Client-side cancellations mid-flight.
	for i := 0; i < 4; i++ {
		cl := connect()
		delay := time.Duration(5+3*i) * time.Millisecond
		wg.Add(1)
		go func(cl *ssdmclient.Client, delay time.Duration) {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				ctx, cancel := context.WithTimeout(context.Background(), delay)
				_, _ = cl.QueryContext(ctx, crossProduct3)
				cancel()
			}
		}(cl, delay)
	}
	// Healthy short queries throughout.
	for i := 0; i < 4; i++ {
		cl := connect()
		wg.Add(1)
		go func(cl *ssdmclient.Client) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				res, err := cl.Query(`SELECT * WHERE { ?s <http://ex/p> ?v }`)
				if err != nil {
					return // shutdown reached this client; fine
				}
				if res.Len() != 200 {
					report(fmt.Errorf("healthy query saw %d rows", res.Len()))
					return
				}
			}
		}(cl)
	}

	// Mid-chaos health check: a fresh client connecting into the storm
	// still gets correct answers.
	time.Sleep(150 * time.Millisecond)
	fresh := connect()
	res, err := fresh.Query(`SELECT * WHERE { ?s <http://ex/p> ?v }`)
	if err != nil || res.Len() != 200 {
		t.Fatalf("fresh client mid-chaos: %v", err)
	}

	// Then shut down in the middle of the remaining traffic.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown did not drain: %v", err)
	}

	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("client goroutines wedged after shutdown")
	}
	select {
	case err := <-unexpected:
		t.Fatalf("stress run surfaced: %v", err)
	default:
	}
}
