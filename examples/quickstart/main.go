// Quickstart: a two-variant system with the UID data variation in
// about sixty lines.
//
// Both variants run the same logic, but variant 1's UID data is
// reexpressed with R₁(u) = u ⊕ 0x7FFFFFFF. Trusted data (from the
// diversified /etc/passwd files) crosses the monitor cleanly; an
// attacker-injected identical value is detected at its first use.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"os"

	"nvariant"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	// The deployment: the paper's UID variation as a validated
	// two-variant DiversitySpec.
	spec, err := nvariant.SpecFromVariation(nvariant.UIDVariation())
	if err != nil {
		return err
	}

	// The variant program: look wwwrun up in (this variant's copy of)
	// /etc/passwd, expose the UID to the monitor, then drop privileges.
	variant := nvariant.ProgramFunc{ProgName: "quickstart", Fn: func(ctx *nvariant.Context) error {
		fd, err := ctx.Open("/etc/passwd", 0x1 /* read-only */, 0)
		if err != nil {
			return err
		}
		data, err := ctx.ReadAll(fd)
		if err != nil {
			return err
		}
		if err := ctx.Close(fd); err != nil {
			return err
		}
		uid, err := findUID(data, "wwwrun")
		if err != nil {
			return err
		}
		if _, err := ctx.UIDValue(uid); err != nil {
			return err
		}
		if err := ctx.Setuid(uid); err != nil {
			return err
		}
		return ctx.Exit(0)
	}}

	world, err := nvariant.NewWorld()
	if err != nil {
		return err
	}
	if err := nvariant.SetupUnsharedPasswd(world, spec.UIDFuncs()); err != nil {
		return err
	}
	res, err := nvariant.Run(world, nvariant.NewNetwork(0),
		[]nvariant.Program{variant, variant},
		nvariant.WithSpec(spec),
		nvariant.WithUnsharedFiles("/etc/passwd", "/etc/group"),
	)
	if err != nil {
		return err
	}
	fmt.Printf("normal run: clean=%v (each variant used a different concrete UID for wwwrun)\n", res.Clean)

	// The attack: both variants receive the same concrete value 0 —
	// exactly what a memory-corrupting input achieves — and the
	// monitor sees divergent canonical UIDs.
	forged := nvariant.ProgramFunc{ProgName: "forged", Fn: func(ctx *nvariant.Context) error {
		if err := ctx.Setuid(0); err != nil {
			return err
		}
		return ctx.Exit(0)
	}}
	world2, err := nvariant.NewWorld()
	if err != nil {
		return err
	}
	res2, err := nvariant.Run(world2, nvariant.NewNetwork(0),
		[]nvariant.Program{forged, forged},
		nvariant.WithSpec(spec),
	)
	if err != nil {
		return err
	}
	fmt.Printf("forged setuid(0): detected=%v — %v\n", res2.Detected(), res2.Alarm)
	return nil
}

// findUID parses passwd content for a user's UID (in this variant's
// representation, because the file itself is diversified).
func findUID(passwd []byte, user string) (nvariant.UID, error) {
	lines := string(passwd)
	for len(lines) > 0 {
		line := lines
		if i := indexByte(lines, '\n'); i >= 0 {
			line, lines = lines[:i], lines[i+1:]
		} else {
			lines = ""
		}
		fields := splitColon(line)
		if len(fields) >= 3 && fields[0] == user {
			var uid uint64
			if _, err := fmt.Sscanf(fields[2], "%d", &uid); err != nil {
				return 0, err
			}
			return nvariant.UID(uint32(uid)), nil
		}
	}
	return 0, fmt.Errorf("user %q not found", user)
}

func indexByte(s string, b byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == b {
			return i
		}
	}
	return -1
}

func splitColon(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ':' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	return out
}
