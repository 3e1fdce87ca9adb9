// fleet demonstrates surviving detection: a pool of N-variant UID
// groups serves traffic through a dispatcher while an attacker mounts
// the paper's UID-forging attack through the same front port. Each
// probe is detected at the first use of the forged UID; the fleet
// quarantines the struck group, appends the alarm to its audit log,
// and brings up a replacement running a freshly generated
// DiversitySpec; the audit log is printed at exit.
//
//	go run ./examples/fleet
//	go run ./examples/fleet -variants 3            # 3-variant groups
//	go run ./examples/fleet -stack uid,files       # custom variation stack
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"nvariant"
	"nvariant/internal/attack"
	"nvariant/internal/vos"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "fleet:", err)
		os.Exit(1)
	}
}

func run() error {
	variants := flag.Int("variants", 2, "variant count N per group")
	stackCSV := flag.String("stack", "", "variation stack per group spec, each kind at most once (e.g. uid,files; default: the full paper stack uid,addr,files)")
	flag.Parse()

	var stack []nvariant.DiversityLayerKind
	if *stackCSV != "" {
		var err error
		if stack, err = nvariant.ParseStack(*stackCSV); err != nil {
			return err
		}
	}

	fmt.Printf("starting a fleet of 3 %d-variant UID groups...\n", *variants)
	f, err := nvariant.NewFleet(nvariant.FleetOptions{
		Groups:   3,
		Variants: *variants,
		Stack:    stack,
	})
	if err != nil {
		return err
	}
	fmt.Println(f.Stats())

	client := f.Client()
	if code, _, err := client.Get("/index.html"); err != nil || code != 200 {
		return fmt.Errorf("benign request = %d, %v", code, err)
	}
	fmt.Println("\nbenign GET /index.html -> 200 (dispatched to some healthy group)")

	for probe := 1; probe <= 2; probe++ {
		fmt.Printf("\n--- attack probe %d: overflow forges the worker UID to 0 ---\n", probe)
		if _, err := client.Raw(attack.ForgeUIDPayload(vos.Root)); err != nil {
			return fmt.Errorf("overflow: %w", err)
		}

		// Drive traffic until the struck group uses the forged UID and
		// its monitor kills it. The connection that triggers detection
		// drops; every other request keeps being served by the pool.
		deadline := time.Now().Add(10 * time.Second)
		for f.Stats().Detections < probe {
			if time.Now().After(deadline) {
				return fmt.Errorf("probe %d not detected", probe)
			}
			code, body, err := client.Get("/private/secret.html")
			switch {
			case err != nil:
				fmt.Printf("request dropped mid-flight (%v) — the monitor killed the struck group\n", err)
			case code == 200:
				return fmt.Errorf("SECRET LEAKED (%d bytes)", len(body))
			}
		}

		// Wait for the replacement to come up.
		if err := f.AwaitReplenished(probe, 3, 10*time.Second); err != nil {
			return fmt.Errorf("replacement for probe %d: %w", probe, err)
		}
		fmt.Println("pool replenished with a freshly generated DiversitySpec:")
		fmt.Println(f.Stats())
	}

	// The fleet still serves normally after the campaign.
	if code, _, err := client.Get("/index.html"); err != nil || code != 200 {
		return fmt.Errorf("post-campaign request = %d, %v", code, err)
	}
	fmt.Println("\npost-campaign GET /index.html -> 200 (service survived the attack)")

	stats, err := f.Stop()
	if err != nil {
		return err
	}
	fmt.Println("\nfinal state:")
	fmt.Println(stats)
	fmt.Printf("\naudit log (%d entries):\n", f.Audit().Len())
	for _, e := range f.Audit().Entries() {
		fmt.Println(" ", e)
	}
	return nil
}
