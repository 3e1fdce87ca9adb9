package experiments

import (
	"fmt"
	"io"

	"nvariant/internal/nvkernel"
	"nvariant/internal/reexpress"
	"nvariant/internal/simnet"
	"nvariant/internal/sys"
	"nvariant/internal/vos"
	"nvariant/internal/word"
)

// Figure1Result reproduces the detection semantics of Figure 1
// (two-variant address-space partitioning): absolute-address
// injections against single-variant and two-variant deployments.
type Figure1Result struct {
	// Injections is the number of injected absolute addresses.
	Injections int
	// SingleVariantSucceeded counts injections that dereferenced
	// successfully on an (unprotected) single variant in the low
	// partition.
	SingleVariantSucceeded int
	// TwoVariantDetected counts injections detected by the 2-variant
	// system (one variant must fault — the address cannot be valid in
	// both partitions).
	TwoVariantDetected int
}

// RunFigure1 injects a spread of absolute addresses (valid-low,
// valid-high and unmapped) and records detection.
func RunFigure1() (Figure1Result, error) {
	// The victim program maps one page and dereferences the injected
	// address. Offsets within the mapped page model a precisely aimed
	// attack; others model imprecise aim.
	injected := []word.Word{
		0x00001000, 0x00001080, 0x000010FF, // aimed at variant 0's page
		0x80001000, 0x80001080, // aimed at variant 1's page
		0x00500000, 0x80500000, // unmapped in both
	}
	res := Figure1Result{Injections: len(injected)}

	for _, addr := range injected {
		addr := addr
		deref := func(ctx *sys.Context) error {
			// Map one full page so in-page offsets model a precisely
			// aimed exploit.
			if _, err := ctx.Mem.Alloc(4096); err != nil {
				return err
			}
			if _, err := ctx.Mem.LoadByte(addr); err != nil {
				return err
			}
			if _, err := ctx.Getuid(); err != nil {
				return err
			}
			return ctx.Exit(0)
		}

		// Single variant in the low partition (what the attacker
		// developed the exploit against).
		single, err := runGroup(1, deref, nvkernel.WithAddressPartition())
		if err != nil {
			return res, err
		}
		if single.Clean {
			res.SingleVariantSucceeded++
		}

		// Two-variant deployment.
		double, err := runGroup(2, deref, nvkernel.WithAddressPartition())
		if err != nil {
			return res, err
		}
		if double.Alarm != nil {
			res.TwoVariantDetected++
		}
	}
	return res, nil
}

// runGroup runs n identical variants of fn.
func runGroup(n int, fn func(*sys.Context) error, opts ...nvkernel.Option) (*nvkernel.Result, error) {
	world, err := vos.NewWorld()
	if err != nil {
		return nil, err
	}
	progs := make([]sys.Program, n)
	for i := range progs {
		progs[i] = sys.ProgramFunc{ProgName: "victim", Fn: fn}
	}
	return nvkernel.Run(world, simnet.New(0), progs, opts...)
}

// Fprint renders the Figure 1 experiment.
func (r Figure1Result) Fprint(w io.Writer) {
	fmt.Fprintln(w, "Figure 1 experiment: two-variant address partitioning vs absolute-address injection.")
	fmt.Fprintf(w, "  injected addresses:                 %d\n", r.Injections)
	fmt.Fprintf(w, "  single-variant exploit successes:   %d\n", r.SingleVariantSucceeded)
	fmt.Fprintf(w, "  two-variant detections:             %d / %d (an address cannot start with 0 and 1 at once)\n",
		r.TwoVariantDetected, r.Injections)
}

// Figure2Result reproduces the data-diversity dataflow of Figure 2:
// trusted data is reexpressed per variant and crosses the inverse
// functions cleanly, while attacker-injected identical data is caught
// at the target interpreter.
type Figure2Result struct {
	// TrustedRuns is the number of trusted-data flows exercised.
	TrustedRuns int
	// TrustedClean counts flows with no false alarm.
	TrustedClean int
	// InjectedRuns is the number of injected-data flows.
	InjectedRuns int
	// InjectedDetected counts detected injections.
	InjectedDetected int
	// Representations are example rows (canonical, R0, R1).
	Representations [][3]word.Word
}

// RunFigure2 drives trusted UIDs (via the diversified external files)
// and injected UIDs (identical concrete words) through the UID target
// interface.
func RunFigure2() (Figure2Result, error) {
	pair := reexpress.UIDVariation().Pair
	trusted := []string{"root", "wwwrun", "alice", "bob"}
	injected := []word.Word{0, 30, 1000, 0x7FFFFFFF}

	res := Figure2Result{}
	reps, err := UIDRepresentationExamples([]word.Word{0, 30, 1000, 1001})
	if err != nil {
		return res, err
	}
	res.Representations = reps

	for _, name := range trusted {
		name := name
		res.TrustedRuns++
		r, err := runUIDGroup(pair, func(ctx *sys.Context) error {
			// Trusted path: name → diversified passwd → uid_value.
			fd, err := ctx.Open("/etc/passwd", vos.ReadOnly, 0)
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
			users, err := vos.ParsePasswd(data)
			if err != nil {
				return err
			}
			u, ok := vos.LookupUser(users, name)
			if !ok {
				return vos.ErrNoEnt
			}
			if _, err := ctx.UIDValue(u.UID); err != nil {
				return err
			}
			return ctx.Exit(0)
		})
		if err != nil {
			return res, err
		}
		if r.Clean {
			res.TrustedClean++
		}
	}

	for _, uid := range injected {
		uid := uid
		res.InjectedRuns++
		r, err := runUIDGroup(pair, func(ctx *sys.Context) error {
			// Injected path: the same concrete word in every variant.
			if _, err := ctx.UIDValue(uid); err != nil {
				return err
			}
			return ctx.Exit(0)
		})
		if err != nil {
			return res, err
		}
		if r.Alarm != nil {
			res.InjectedDetected++
		}
	}
	return res, nil
}

// runUIDGroup runs two variants under the UID variation with
// diversified passwd files.
func runUIDGroup(pair reexpress.Pair, fn func(*sys.Context) error) (*nvkernel.Result, error) {
	world, err := vos.NewWorld()
	if err != nil {
		return nil, err
	}
	if err := nvkernel.SetupUnsharedPasswd(world, pair.Funcs()); err != nil {
		return nil, err
	}
	progs := []sys.Program{
		sys.ProgramFunc{ProgName: "flow", Fn: fn},
		sys.ProgramFunc{ProgName: "flow", Fn: fn},
	}
	return nvkernel.Run(world, simnet.New(0), progs,
		nvkernel.WithSpec(reexpress.UncheckedSpec(2, reexpress.UIDLayer(pair.Funcs()...))),
		nvkernel.WithUnsharedFiles("/etc/passwd", "/etc/group"),
	)
}

// Fprint renders the Figure 2 experiment.
func (r Figure2Result) Fprint(w io.Writer) {
	fmt.Fprintln(w, "Figure 2 experiment: data diversity dataflow (trusted vs injected UID data).")
	fmt.Fprintf(w, "  %-12s %-14s %-14s\n", "canonical", "R0 (variant 0)", "R1 (variant 1)")
	for _, rep := range r.Representations {
		fmt.Fprintf(w, "  %-12s %-14s %-14s\n", rep[0].Decimal(), rep[1], rep[2])
	}
	fmt.Fprintf(w, "  trusted flows clean:     %d / %d (normal equivalence)\n", r.TrustedClean, r.TrustedRuns)
	fmt.Fprintf(w, "  injected flows detected: %d / %d (disjoint inverses)\n", r.InjectedDetected, r.InjectedRuns)
}
