package libc

import (
	"testing"

	"nvariant/internal/nvkernel"
	"nvariant/internal/reexpress"
	"nvariant/internal/simnet"
	"nvariant/internal/sys"
	"nvariant/internal/vos"
)

// run executes fn as a single-variant program on a fresh world.
func run(t *testing.T, fn func(ctx *sys.Context) error, opts ...nvkernel.Option) *nvkernel.Result {
	t.Helper()
	world, err := vos.NewWorld()
	if err != nil {
		t.Fatal(err)
	}
	res, err := nvkernel.Run(world, simnet.New(0),
		[]sys.Program{sys.ProgramFunc{ProgName: "libc-test", Fn: fn}}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestGetpwnam(t *testing.T) {
	res := run(t, func(ctx *sys.Context) error {
		u, ok, err := Getpwnam(ctx, "wwwrun")
		if err != nil {
			return err
		}
		if !ok || u.UID != 30 || u.GID != 8 {
			return ctx.Exit(1)
		}
		_, ok, err = Getpwnam(ctx, "mallory")
		if err != nil {
			return err
		}
		if ok {
			return ctx.Exit(2)
		}
		return ctx.Exit(0)
	})
	if !res.Clean || res.Status != 0 {
		t.Fatalf("status = %d, alarm = %v", res.Status, res.Alarm)
	}
}

func TestGetpwuid(t *testing.T) {
	res := run(t, func(ctx *sys.Context) error {
		u, ok, err := Getpwuid(ctx, 1000)
		if err != nil {
			return err
		}
		if !ok || u.Name != "alice" {
			return ctx.Exit(1)
		}
		_, ok, err = Getpwuid(ctx, 424242)
		if err != nil {
			return err
		}
		if ok {
			return ctx.Exit(2)
		}
		return ctx.Exit(0)
	})
	if !res.Clean || res.Status != 0 {
		t.Fatalf("status = %d, alarm = %v", res.Status, res.Alarm)
	}
}

func TestGetgrnam(t *testing.T) {
	res := run(t, func(ctx *sys.Context) error {
		g, ok, err := Getgrnam(ctx, "www")
		if err != nil {
			return err
		}
		if !ok || g.GID != 8 {
			return ctx.Exit(1)
		}
		return ctx.Exit(0)
	})
	if !res.Clean || res.Status != 0 {
		t.Fatalf("status = %d, alarm = %v", res.Status, res.Alarm)
	}
}

func TestGetpwnamThroughUnsharedFiles(t *testing.T) {
	// Under the UID variation, getpwnam reads the variant's own
	// diversified passwd and returns the variant's representation —
	// feeding it to uid_value must cross-check cleanly.
	world, err := vos.NewWorld()
	if err != nil {
		t.Fatal(err)
	}
	pair := reexpress.UIDVariation().Pair
	if err := nvkernel.SetupUnsharedPasswd(world, pair.Funcs()); err != nil {
		t.Fatal(err)
	}
	fn := func(ctx *sys.Context) error {
		u, ok, err := Getpwnam(ctx, "alice")
		if err != nil {
			return err
		}
		if !ok {
			return ctx.Exit(1)
		}
		if _, err := ctx.UIDValue(u.UID); err != nil {
			return err
		}
		return ctx.Exit(0)
	}
	progs := []sys.Program{
		sys.ProgramFunc{ProgName: "v", Fn: fn},
		sys.ProgramFunc{ProgName: "v", Fn: fn},
	}
	res, err := nvkernel.Run(world, simnet.New(0), progs,
		nvkernel.WithSpec(reexpress.UncheckedSpec(2, reexpress.UIDLayer(pair.Funcs()...))),
		nvkernel.WithUnsharedFiles("/etc/passwd", "/etc/group"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean || res.Status != 0 {
		t.Fatalf("status = %d, alarm = %v", res.Status, res.Alarm)
	}
}

func TestGetpwnamMissingPasswd(t *testing.T) {
	// A world whose filesystem has no /etc/passwd at all.
	world := &vos.World{FS: vos.NewFS(), Users: vos.BaseUsers(), Groups: vos.BaseGroups()}
	res, err := nvkernel.Run(world, simnet.New(0), []sys.Program{
		sys.ProgramFunc{ProgName: "v", Fn: func(ctx *sys.Context) error {
			if _, _, err := Getpwnam(ctx, "root"); err == nil {
				return ctx.Exit(1)
			}
			return ctx.Exit(0)
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean || res.Status != 0 {
		t.Fatalf("status = %d, alarm = %v", res.Status, res.Alarm)
	}
}
