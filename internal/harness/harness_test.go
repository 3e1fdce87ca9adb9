package harness

import (
	"errors"
	"testing"

	"nvariant/internal/attack"
	"nvariant/internal/httpd"
	"nvariant/internal/nvkernel"
	"nvariant/internal/reexpress"
	"nvariant/internal/simnet"
	"nvariant/internal/vos"
)

// startConfig launches a configuration with test-friendly options.
func startConfig(t *testing.T, c Configuration, opts httpd.Options) *Handle {
	t.Helper()
	h, err := Start(c, opts, 0)
	if err != nil {
		t.Fatalf("start %v: %v", c, err)
	}
	return h
}

func TestAllConfigurationsServeNormally(t *testing.T) {
	for _, c := range []Configuration{
		Config1Unmodified, Config2Transformed, Config3AddressSpace, Config4UIDVariation,
	} {
		c := c
		t.Run(c.String(), func(t *testing.T) {
			h := startConfig(t, c, httpd.DefaultOptions())
			cl := h.Client()

			code, body, err := cl.Get("/index.html")
			if err != nil {
				t.Fatalf("GET /index.html: %v", err)
			}
			if code != 200 || !containsStr(body, "It works!") {
				t.Errorf("GET /index.html = %d %q", code, body)
			}

			code, _, err = cl.Get("/no-such-page.html")
			if err != nil {
				t.Fatalf("GET missing: %v", err)
			}
			if code != 404 {
				t.Errorf("missing page = %d, want 404", code)
			}

			// The root-only document must be refused: the server has
			// dropped to wwwrun for filesystem access.
			code, body, err = cl.Get("/private/secret.html")
			if err != nil {
				t.Fatalf("GET secret: %v", err)
			}
			if code != 403 || httpd.ContainsSecret(body) {
				t.Errorf("GET secret = %d (leak=%v), want 403", code, httpd.ContainsSecret(body))
			}

			// Directory index.
			code, body, err = cl.Get("/")
			if err != nil {
				t.Fatalf("GET /: %v", err)
			}
			if code != 200 || !containsStr(body, "It works!") {
				t.Errorf("GET / = %d %q", code, body)
			}

			res, err := h.Stop()
			if err != nil {
				t.Fatal(err)
			}
			if !res.Clean {
				t.Errorf("server did not exit cleanly: %+v", res.Alarm)
			}
		})
	}
}

func TestAttackMatrix(t *testing.T) {
	// The headline security result: the full-word UID-forging attack
	// (Chen et al. style) against every configuration. Address-space
	// partitioning (configuration 3) does NOT protect against this
	// non-control-data attack; only the UID variation detects it.
	tests := []struct {
		config       Configuration
		wantLeak     bool
		wantDetected bool
	}{
		{Config1Unmodified, true, false},
		{Config2Transformed, true, false},
		{Config3AddressSpace, true, false},
		{Config4UIDVariation, false, true},
	}
	for _, tc := range tests {
		tc := tc
		t.Run(tc.config.String(), func(t *testing.T) {
			h := startConfig(t, tc.config, httpd.DefaultOptions())
			cl := h.Client()

			// Step 1: the overflow request corrupts the worker UID to
			// root. The server answers 400 and keeps running.
			resp, err := cl.Raw(attack.ForgeUIDPayload(vos.Root))
			if err != nil {
				t.Fatalf("overflow request: %v", err)
			}
			if code, err := httpd.ParseStatus(resp); err != nil || code != 400 {
				t.Fatalf("overflow response = %d, %v; want 400", code, err)
			}

			// Step 2: the trigger request uses the corrupted UID.
			code, body, err := cl.Get("/private/secret.html")
			leaked := err == nil && code == 200 && httpd.ContainsSecret(body)

			if leaked != tc.wantLeak {
				t.Errorf("secret leaked = %v, want %v (code=%d err=%v)", leaked, tc.wantLeak, code, err)
			}
			if tc.wantDetected && err == nil {
				t.Errorf("expected the monitor to kill the connection, got %d %q", code, body)
			}
			if tc.wantDetected && !errors.Is(err, httpd.ErrConnClosed) {
				t.Logf("note: attacker observed %v", err)
			}

			res, err := h.Stop()
			if err != nil {
				t.Fatal(err)
			}
			if tc.wantDetected {
				if res.Alarm == nil {
					t.Fatal("no alarm raised")
				}
				if res.Alarm.Reason != nvkernel.ReasonUIDDivergence {
					t.Errorf("alarm reason = %v, want uid-divergence", res.Alarm.Reason)
				}
				if res.Alarm.Syscall != "uid_value" {
					t.Errorf("alarm at %q, want uid_value (detection at first use)", res.Alarm.Syscall)
				}
			} else if res.Alarm != nil {
				t.Errorf("unexpected alarm: %+v", res.Alarm)
			}
		})
	}
}

func TestPartialOverwriteAttack(t *testing.T) {
	// §3.2: a single-byte partial overwrite (low byte := 0 turns
	// wwwrun's UID 30 into 0) escalates on the unmodified server and
	// is detected by the UID variation because R₁ flips the low byte's
	// bits too.
	t.Run("undefended", func(t *testing.T) {
		h := startConfig(t, Config1Unmodified, httpd.DefaultOptions())
		cl := h.Client()
		if _, err := cl.Raw(attack.ForgeLowBytesPayload(vos.Root, 1)); err != nil {
			t.Fatal(err)
		}
		code, body, err := cl.Get("/private/secret.html")
		if err != nil || code != 200 || !httpd.ContainsSecret(body) {
			t.Errorf("1-byte attack failed: %d %v", code, err)
		}
		if _, err := h.Stop(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("uid-variation", func(t *testing.T) {
		h := startConfig(t, Config4UIDVariation, httpd.DefaultOptions())
		cl := h.Client()
		if _, err := cl.Raw(attack.ForgeLowBytesPayload(vos.Root, 1)); err != nil {
			t.Fatal(err)
		}
		_, _, err := cl.Get("/private/secret.html")
		if err == nil {
			t.Error("1-byte attack not stopped")
		}
		res, err := h.Stop()
		if err != nil {
			t.Fatal(err)
		}
		if res.Alarm == nil || res.Alarm.Reason != nvkernel.ReasonUIDDivergence {
			t.Errorf("alarm = %+v, want uid-divergence", res.Alarm)
		}
	})
}

func TestLogUIDsPitfall(t *testing.T) {
	// §4: leaving UID values in shared log output makes the UID
	// variation diverge on benign traffic (a false alarm). The
	// paper's fix — removing the UID from the log line — is the
	// default; this test re-introduces the bug.
	opts := httpd.DefaultOptions()
	opts.LogUIDs = true
	h := startConfig(t, Config4UIDVariation, opts)
	cl := h.Client()

	// A benign 403 (private page) triggers the log line with the UID.
	_, _, _ = cl.Get("/private/secret.html")

	res, err := h.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if res.Alarm == nil {
		t.Fatal("expected divergence from UID-bearing log line")
	}
	if res.Alarm.Reason != nvkernel.ReasonArgDivergence && res.Alarm.Reason != nvkernel.ReasonDataDivergence {
		t.Errorf("alarm reason = %v", res.Alarm.Reason)
	}
}

func TestRemoteStopRequestIsNotFound(t *testing.T) {
	// Only closing the port stops a group: /__shutdown is an ordinary
	// missing document, and the group keeps serving until Stop.
	h := startConfig(t, Config4UIDVariation, httpd.DefaultOptions())
	cl := h.Client()
	if code, _, err := cl.Get("/__shutdown"); err != nil || code != 404 {
		t.Fatalf("stop request = %d, %v; want 404", code, err)
	}
	if code, _, err := cl.Get("/index.html"); err != nil || code != 200 {
		t.Fatalf("request after the stop request = %d, %v", code, err)
	}
	res, err := h.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean {
		t.Errorf("not clean: %+v", res.Alarm)
	}
}

func TestErrorLogWritten(t *testing.T) {
	h := startConfig(t, Config4UIDVariation, httpd.DefaultOptions())
	cl := h.Client()
	_, _, _ = cl.Get("/private/secret.html") // benign 403 → log line
	res, err := h.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean {
		t.Fatalf("alarm: %+v", res.Alarm)
	}
	log, err := h.World.FS.ReadFile("/var/log/httpd-error_log", vos.CredFor(vos.Root, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !containsStr(log, "httpd started") || !containsStr(log, "access denied") {
		t.Errorf("log = %q", log)
	}
	// The paper's fix: no numeric UID in the shared log.
	if containsStr(log, "uid=") {
		t.Errorf("log leaks UID values: %q", log)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	h := startConfig(t, Config1Unmodified, httpd.DefaultOptions())
	cl := h.Client()
	resp, err := cl.Raw([]byte("POST /index.html HTTP/1.0\r\n\r\n"))
	if err != nil {
		t.Fatal(err)
	}
	if code, _ := httpd.ParseStatus(resp); code != 405 {
		t.Errorf("POST = %d, want 405", code)
	}
	if _, err := h.Stop(); err != nil {
		t.Fatal(err)
	}
}

func TestDotDotRejected(t *testing.T) {
	h := startConfig(t, Config1Unmodified, httpd.DefaultOptions())
	cl := h.Client()
	code, _, err := cl.Get("/../etc/passwd")
	if err != nil {
		t.Fatal(err)
	}
	if code != 403 {
		t.Errorf("traversal = %d, want 403", code)
	}
	if _, err := h.Stop(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigurationStrings(t *testing.T) {
	if Config1Unmodified.String() != "Unmodified Apache" || Config4UIDVariation.String() != "2-Variant UID" {
		t.Error("configuration names drifted from Table 3")
	}
	if Configuration(99).String() != "unknown" {
		t.Error("unknown configuration name")
	}
	if Config1Unmodified.Variants() != 1 || Config3AddressSpace.Variants() != 2 {
		t.Error("variant counts wrong")
	}
}

func containsStr(b []byte, s string) bool {
	return len(b) > 0 && len(s) > 0 && string(b) != "" && indexOf(string(b), s) >= 0
}

func indexOf(hay, needle string) int {
	for i := 0; i+len(needle) <= len(hay); i++ {
		if hay[i:i+len(needle)] == needle {
			return i
		}
	}
	return -1
}

func TestAblationDetectionWithoutDedicatedCalls(t *testing.T) {
	// §5: instead of the dedicated per-request uid_value call, rely on
	// the existing syscall-boundary monitoring. The attack is still
	// detected — but at the next natural UID syscall (seteuid) rather
	// than at the point of use, trading detection precision for one
	// syscall per request.
	opts := httpd.DefaultOptions()
	opts.NoDetectionCalls = true
	h := startConfig(t, Config4UIDVariation, opts)
	cl := h.Client()

	if code, _, err := cl.Get("/index.html"); err != nil || code != 200 {
		t.Fatalf("benign request = %d, %v", code, err)
	}
	if _, err := cl.Raw(attack.ForgeUIDPayload(vos.Root)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.Get("/private/secret.html"); err == nil {
		t.Error("trigger request answered despite corruption")
	}

	res, err := h.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if res.Alarm == nil || res.Alarm.Reason != nvkernel.ReasonUIDDivergence {
		t.Fatalf("alarm = %+v, want uid-divergence", res.Alarm)
	}
	if res.Alarm.Syscall != "seteuid" {
		t.Errorf("detected at %q, want seteuid (the next natural UID syscall)", res.Alarm.Syscall)
	}
}

func TestCompositionDetectsBothAttackClasses(t *testing.T) {
	// Configuration 4 composes address partitioning with the UID
	// variation (§4: "the practical possibility of combining
	// variations"). The UID attack is covered by TestAttackMatrix;
	// here the combined system also faces an overlong payload that
	// would run past mapped memory — a crash-divergence case — and
	// must flag it rather than serve on.
	h := startConfig(t, Config4UIDVariation, httpd.DefaultOptions())
	cl := h.Client()

	// RecvCap bounds the kernel copy, so a giant payload is truncated
	// at 1280 bytes: still inside the guard region, overwriting the
	// UID word with filler bytes ('AAAA' = 0x41414141).
	huge := make([]byte, 4096)
	for i := range huge {
		huge[i] = 'A'
	}
	if _, err := cl.Raw(huge); err != nil {
		t.Fatal(err)
	}
	_, _, err := cl.Get("/index.html")
	if err == nil {
		t.Error("request served with garbage UID")
	}
	res, err := h.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if res.Alarm == nil || res.Alarm.Reason != nvkernel.ReasonUIDDivergence {
		t.Fatalf("alarm = %+v, want uid-divergence (garbage UID decodes differently)", res.Alarm)
	}
}

// --- DiversitySpec-driven groups ---------------------------------------

func TestSpecDrivenGroupServesAndDetectsAtEveryN(t *testing.T) {
	// The full configuration-4 stack at N ∈ {2,3,4,5}: benign requests
	// must be served with no false alarm, and the planted UID-forging
	// attack must be detected at every N.
	for n := 2; n <= 5; n++ {
		spec := reexpress.Generate(int64(40+n), n,
			reexpress.LayerUID, reexpress.LayerAddressPartition, reexpress.LayerUnsharedFiles)
		h, err := StartSpec(simnet.New(0), GroupSpec{
			Config:    Config4UIDVariation,
			Diversity: spec,
		})
		if err != nil {
			t.Fatalf("n=%d: start: %v", n, err)
		}
		cl := h.Client()
		if code, _, err := cl.Get("/index.html"); err != nil || code != 200 {
			t.Fatalf("n=%d: benign request = %d, %v", n, code, err)
		}
		if _, err := cl.Raw(attack.ForgeUIDPayload(vos.Root)); err != nil {
			t.Fatalf("n=%d: overflow: %v", n, err)
		}
		_, _, _ = cl.Get("/private/secret.html") // trigger first use of the forged UID
		res, err := h.Wait()
		if err != nil {
			t.Fatalf("n=%d: wait: %v", n, err)
		}
		if res.Alarm == nil || res.Alarm.Reason != nvkernel.ReasonUIDDivergence {
			t.Fatalf("n=%d: alarm = %v, want uid-divergence", n, res.Alarm)
		}
	}
}

func TestGroupSpecVariants(t *testing.T) {
	spec := reexpress.Generate(7, 4, reexpress.LayerUID, reexpress.LayerUnsharedFiles)
	for _, tc := range []struct {
		name string
		gs   GroupSpec
		want int
	}{
		{"default config4", GroupSpec{Config: Config4UIDVariation}, 2},
		{"spec-driven", GroupSpec{Config: Config4UIDVariation, Diversity: spec}, 4},
		{"config1", GroupSpec{Config: Config1Unmodified}, 1},
	} {
		world, err := vos.NewWorld()
		if err != nil {
			t.Fatal(err)
		}
		progs, _, err := buildSpec(world, tc.gs)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(progs) != tc.want {
			t.Errorf("%s variants = %d, want %d", tc.name, len(progs), tc.want)
		}
	}
}

func TestConfig4RejectsUIDLayerWithoutUnsharedFiles(t *testing.T) {
	spec := reexpress.Generate(11, 2) // UID layer only
	world, err := vos.NewWorld()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := buildSpec(world, GroupSpec{Config: Config4UIDVariation, Diversity: spec}); err == nil {
		t.Fatal("UID layer without unshared files accepted (would false-alarm on passwd lookup)")
	}
}

func TestConfig3RejectsUIDLayer(t *testing.T) {
	spec := reexpress.Generate(11, 2, reexpress.LayerUID, reexpress.LayerUnsharedFiles)
	world, err := vos.NewWorld()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := buildSpec(world, GroupSpec{Config: Config3AddressSpace, Diversity: spec}); err == nil {
		t.Fatal("config 3 accepted a UID layer over untransformed programs")
	}
}
