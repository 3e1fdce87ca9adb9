package harness

import (
	"errors"
	"sync"
	"testing"
	"time"

	"nvariant/internal/attack"
	"nvariant/internal/httpd"
	"nvariant/internal/nvkernel"
	"nvariant/internal/simnet"
	"nvariant/internal/sys"
	"nvariant/internal/testutil"
	"nvariant/internal/vos"
	"nvariant/internal/webbench"
)

func TestWorkersServeBenignLoad(t *testing.T) {
	// Every configuration preforks cleanly and serves concurrent load
	// with no false alarm; the kernel reports the lane count.
	for _, c := range []Configuration{
		Config1Unmodified, Config2Transformed, Config3AddressSpace, Config4UIDVariation,
	} {
		c := c
		t.Run(c.String(), func(t *testing.T) {
			opts := httpd.DefaultOptions()
			opts.Workers = 4
			h := startConfig(t, c, opts)
			m, err := webbench.Run(h.Net, h.Port, webbench.Options{Engines: 8, RequestsPerEngine: 6})
			if err != nil {
				t.Fatal(err)
			}
			if m.Errors > 0 {
				t.Fatalf("%d request errors under benign load", m.Errors)
			}
			res, err := h.Stop()
			if err != nil {
				t.Fatal(err)
			}
			if !res.Clean {
				t.Fatalf("not clean: %+v", res.Alarm)
			}
			if res.Workers != 4 {
				t.Errorf("workers = %d, want 4", res.Workers)
			}
		})
	}
}

// recvCounter is a fault hook that injects nothing and counts each
// variant's recv submissions.
type recvCounter struct {
	mu    sync.Mutex
	recvs map[int]int
}

func (r *recvCounter) PreSyscall(_, variant int, num sys.Num) (time.Duration, bool) {
	if num == sys.Recv {
		r.mu.Lock()
		r.recvs[variant]++
		r.mu.Unlock()
	}
	return 0, false
}

func TestStartReturnsAfterReadinessProbeServed(t *testing.T) {
	// The readiness probe's empty connection costs every variant one
	// recv, and Start must not return before it: the caller's first
	// request would otherwise race that recv, and a fault plan keyed
	// on the k-th recv would land by lane scheduling, not by traffic.
	for _, w := range []int{1, 4} {
		hook := &recvCounter{recvs: make(map[int]int)}
		h, err := StartSpec(simnet.New(0), GroupSpec{Config: Config4UIDVariation, Workers: w},
			nvkernel.WithFaultHook(hook))
		if err != nil {
			t.Fatal(err)
		}
		hook.mu.Lock()
		got := map[int]int{0: hook.recvs[0], 1: hook.recvs[1]}
		hook.mu.Unlock()
		if _, err := h.Stop(); err != nil {
			t.Fatal(err)
		}
		if got[0] != 1 || got[1] != 1 {
			t.Errorf("W=%d: recvs per variant at Start return = %v, want 1 each", w, got)
		}
	}
}

func TestAttackDetectedAtWorkers(t *testing.T) {
	// The detection contract at W > 1: the overflow corrupts one lane's
	// UID word; the trigger must be detected as soon as it reaches that
	// lane (sibling lanes serve it as a benign 403), the whole group
	// dies, and the secret never leaks.
	spec := GroupSpec{Config: Config4UIDVariation, Workers: 4}
	h, err := StartSpec(simnet.New(0), spec)
	if err != nil {
		t.Fatal(err)
	}
	cl := h.Client()

	if _, err := cl.Raw(attack.ForgeUIDPayload(vos.Root)); err != nil {
		t.Fatalf("overflow request: %v", err)
	}
	testutil.Eventually(t, 10*time.Second, func() bool {
		code, body, err := cl.Get("/private/secret.html")
		if err == nil && code == 200 && httpd.ContainsSecret(body) {
			t.Error("secret leaked from a worker lane")
			return true
		}
		if err != nil {
			// The monitor killed the group: the connection dropped with
			// no response, exactly what a direct attacker observes.
			if !errors.Is(err, httpd.ErrConnClosed) {
				t.Logf("note: attacker observed %v", err)
			}
			return true
		}
		return false
	}, "trigger never reached the corrupted lane")

	res, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Alarm == nil || res.Alarm.Reason != nvkernel.ReasonUIDDivergence {
		t.Fatalf("alarm = %+v, want uid-divergence", res.Alarm)
	}
	if res.Alarm.Syscall != "uid_value" {
		t.Errorf("alarm at %q, want uid_value", res.Alarm.Syscall)
	}
	if res.Alarm.Worker < 0 || res.Alarm.Worker >= 4 {
		t.Errorf("alarm worker = %d, want a lane in [0,4)", res.Alarm.Worker)
	}
}

func TestNoCrossLaneCredentialLeak(t *testing.T) {
	// Regression for the group-wide credential race: with W > 1 and one
	// shared cred, a lane re-escalating to root between requests let a
	// concurrently-serving sibling lane open the root-only document —
	// a healthy group leaking with no attack at all. Credentials are
	// now per lane (fork semantics); hammer the old window with
	// concurrent secret probes under benign load.
	opts := httpd.DefaultOptions()
	opts.Workers = 4
	h := startConfig(t, Config4UIDVariation, opts)

	var wg sync.WaitGroup
	leaked := make(chan struct{}, 1)
	for c := 0; c < 6; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := h.Client()
			for i := 0; i < 60; i++ {
				uri := "/index.html"
				secret := (c+i)%2 == 0
				if secret {
					uri = "/private/secret.html"
				}
				code, body, err := cl.Get(uri)
				if err != nil {
					continue
				}
				if secret && code == 200 && httpd.ContainsSecret(body) {
					select {
					case leaked <- struct{}{}:
					default:
					}
				}
			}
		}()
	}
	wg.Wait()
	select {
	case <-leaked:
		t.Fatal("root-only document leaked from a healthy group: lane credentials bled across worker lanes")
	default:
	}
	res, err := h.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if res.Alarm != nil {
		t.Errorf("false alarm under concurrent probes: %+v", res.Alarm)
	}
}

func TestMaxConnsWithWorkers(t *testing.T) {
	// The scoreboard-backed budget: with concurrent lanes the group
	// still shuts down deterministically once MaxConns connections are
	// served, with no false alarm from divergent per-lane stop
	// decisions.
	opts := httpd.DefaultOptions()
	opts.MaxConns = 4
	opts.Workers = 3
	h := startConfig(t, Config4UIDVariation, opts)
	cl := h.Client()
	for i := 0; i < opts.MaxConns; i++ {
		if code, _, err := cl.Get("/index.html"); err != nil || code != 200 {
			t.Fatalf("request %d = %d, %v", i, code, err)
		}
	}
	res, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean {
		t.Errorf("server not clean after MaxConns with workers: %+v", res.Alarm)
	}
}
