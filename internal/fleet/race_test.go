package fleet_test

// Race regression tests for the fleet's hot path: concurrent dispatch
// through the front port while attack-triggered quarantine/replacement
// churns the pool and observers read stats and the audit log. Run with
// -race (CI does).

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"nvariant/internal/attack"
	"nvariant/internal/fleet"
	"nvariant/internal/nvkernel"
	"nvariant/internal/testutil"
	"nvariant/internal/vos"
)

func TestFleetConcurrentDispatchRace(t *testing.T) {
	f := startFleet(t, fleet.Options{Groups: 3})

	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Legitimate clients hammering the dispatcher.
	for c := 0; c < 6; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := f.Client()
			for i := 0; i < 25; i++ {
				_, _, _ = client.Get("/index.html")
			}
		}()
	}

	// An attacker interleaving probes (forcing quarantine churn). Poll
	// rather than Eventually: this runs off the test goroutine, and the
	// final counter assertions below catch a missed detection.
	wg.Add(1)
	go func() {
		defer wg.Done()
		client := f.Client()
		for i := 0; i < 2; i++ {
			_, _ = client.Raw(attack.ForgeUIDPayload(vos.Root))
			want := i + 1
			_ = testutil.Poll(10*time.Second, func() bool {
				if f.Stats().Detections >= want {
					return true
				}
				_, _, _ = client.Get("/private/secret.html")
				return false
			})
		}
	}()

	// Observers reading stats and audit concurrently (stopped after
	// the clients and attacker are done).
	var obsWg sync.WaitGroup
	for o := 0; o < 2; o++ {
		obsWg.Add(1)
		go func() {
			defer obsWg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = f.Stats().String()
					_ = f.Audit().Entries()
					time.Sleep(100 * time.Microsecond)
				}
			}
		}()
	}

	wgDone := make(chan struct{})
	go func() { wg.Wait(); close(wgDone) }()
	select {
	case <-wgDone:
	case <-time.After(60 * time.Second):
		t.Fatal("concurrent dispatch did not finish")
	}
	close(stop)
	obsWg.Wait()

	// Detection is counted before the replacement registers; wait for
	// the pool to settle so the final roster assertion isn't racy.
	if err := f.AwaitReplenished(2, 3, 15*time.Second); err != nil {
		t.Fatal(err)
	}

	stats, err := f.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Detections != 2 || stats.Quarantined != 2 || stats.Replaced != 2 {
		t.Errorf("detections/quarantined/replaced = %d/%d/%d, want 2/2/2",
			stats.Detections, stats.Quarantined, stats.Replaced)
	}
	if len(stats.Healthy) != 3 {
		t.Errorf("healthy at end = %d, want 3", len(stats.Healthy))
	}
	// Every struck group leaves one audit record of its alarm.
	alarmed := 0
	for _, e := range f.Audit().Entries() {
		if e.Alarm != nil && e.Alarm.Reason == nvkernel.ReasonUIDDivergence {
			alarmed++
		}
	}
	if alarmed != 2 {
		t.Errorf("audit records %d uid-divergence alarms, want 2", alarmed)
	}
}

// TestFleetProxyPooledPayloadIntegrity hammers the front door with
// concurrent clients and verifies that no response payload is ever
// observed mutated after delivery: each body is checked on arrival and
// re-checked after the client holds it across further traffic. Groups
// send pooled buffers with SendOwned, so an ownership bug (a buffer
// recycled while a client still reads it) fails this test — and trips
// -race.
func TestFleetProxyPooledPayloadIntegrity(t *testing.T) {
	f := startFleet(t, fleet.Options{Groups: 2})
	const want = "<html><body><h1>It works!</h1></body></html>\n"

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for c := 0; c < 8; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := f.Client()
			held := make([][]byte, 0, 5)
			for i := 0; i < 40; i++ {
				code, body, err := client.Get("/index.html")
				if err != nil || code != 200 {
					errs <- fmt.Errorf("client %d request %d: %d %v", c, i, code, err)
					return
				}
				if string(body) != want {
					errs <- fmt.Errorf("client %d request %d: body corrupted on delivery: %q", c, i, body)
					return
				}
				held = append(held, body)
				if len(held) == cap(held) {
					// Re-verify payloads held across later requests:
					// buffer recycling must never scribble on them.
					for _, h := range held {
						if string(h) != want {
							errs <- fmt.Errorf("client %d: held body mutated: %q", c, h)
							return
						}
					}
					held = held[:0]
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	stats, err := f.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Detections != 0 {
		t.Errorf("false detections under benign load: %+v", stats)
	}
}

func TestFleetStopDuringDispatchRace(t *testing.T) {
	before := runtime.NumGoroutine()
	f := startFleet(t, fleet.Options{Groups: 2})
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := f.Client()
			for i := 0; i < 50; i++ {
				if _, _, err := client.Get("/index.html"); err != nil {
					return // fleet is stopping; drops are expected
				}
			}
		}()
	}
	time.Sleep(2 * time.Millisecond)
	if _, err := f.Stop(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("clients hung after fleet stop")
	}

	// Stop waited for every fleet goroutine; the groups' kernel
	// goroutines must have drained too.
	testutil.CheckNoGoroutineLeak(t, before, 2)
}
