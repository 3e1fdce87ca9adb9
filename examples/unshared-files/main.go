// unshared-files demonstrates §3.4: trusted external data (the passwd
// database) is diversified per variant via the kernel's unshared-file
// mechanism, so variants never compute reexpression themselves — they
// simply read their own /etc/passwd-<i>.
//
//	go run ./examples/unshared-files
package main

import (
	"fmt"
	"os"

	"nvariant"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "unshared-files:", err)
		os.Exit(1)
	}
}

func run() error {
	spec, err := nvariant.SpecFromVariation(nvariant.UIDVariation())
	if err != nil {
		return err
	}
	world, err := nvariant.NewWorld()
	if err != nil {
		return err
	}
	if err := nvariant.SetupUnsharedPasswd(world, spec.UIDFuncs()); err != nil {
		return err
	}

	// Each variant reads "/etc/passwd" — and transparently receives
	// its own diversified copy. The first line of each variant's view
	// is written to a per-variant scratch file so we can show them.
	reader := nvariant.ProgramFunc{ProgName: "reader", Fn: func(ctx *nvariant.Context) error {
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
		firstLine := string(data)
		for i := 0; i < len(firstLine); i++ {
			if firstLine[i] == '\n' {
				firstLine = firstLine[:i]
				break
			}
		}
		out, err := ctx.Open("/tmp/view", 0x2|0x4 /* write|create */, 0644)
		if err != nil {
			return err
		}
		if err := ctx.WriteString(out, firstLine); err != nil {
			return err
		}
		if err := ctx.Close(out); err != nil {
			return err
		}
		return ctx.Exit(0)
	}}

	res, err := nvariant.Run(world, nvariant.NewNetwork(0),
		[]nvariant.Program{reader, reader},
		nvariant.WithSpec(spec),
		nvariant.WithUnsharedFiles("/etc/passwd", "/etc/group", "/tmp/view"),
	)
	if err != nil {
		return err
	}
	if !res.Clean {
		return fmt.Errorf("unexpected alarm: %v", res.Alarm)
	}

	// Show what each variant saw (the kernel mapped /tmp/view to
	// /tmp/view-0 and /tmp/view-1; we pre-created neither, so Create
	// made per-variant files).
	for i := 0; i < 2; i++ {
		path := fmt.Sprintf("/tmp/view-%d", i)
		content, err := world.FS.ReadFile(path, nvariant.RootCred())
		if err != nil {
			return fmt.Errorf("read %s: %w", path, err)
		}
		fmt.Printf("variant %d saw: %s\n", i, content)
	}
	fmt.Println("same program, same path, different trusted data — and the monitor saw no divergence")
	return nil
}
