// transformer demonstrates the automated UID variation (§3.3) end to
// end: transform a mini-C server module for both variants, run the
// transformed pair under the monitor on benign input (normal
// equivalence), then re-run with an attacker corrupting the stored
// worker UID (detection).
//
//	go run ./examples/transformer
package main

import (
	"fmt"
	"os"

	"nvariant"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "transformer:", err)
		os.Exit(1)
	}
}

func run() error {
	spec, err := nvariant.SpecFromVariation(nvariant.UIDVariation())
	if err != nil {
		return err
	}

	// Show the transformation product for variant 1.
	res, err := nvariant.TransformMinic(nvariant.SampleServerSource, spec.UIDFuncs()[1])
	if err != nil {
		return err
	}
	c := res.Counts
	fmt.Printf("automated transformation of the case-study UID module:\n")
	fmt.Printf("  %d constants reexpressed, %d uid_value, %d cc_*, %d cond_chk, %d log scrubs (total %d; paper: 73 manual changes)\n\n",
		c.Constants, c.UIDValues, c.Comparisons, c.CondChks, c.LogScrubs, c.Total())

	// Run the transformed pair on benign input.
	clean, err := runSpec(spec, nil)
	if err != nil {
		return err
	}
	fmt.Printf("benign run: clean=%v status=%d (normal equivalence holds)\n", clean.Clean, clean.Status)

	// Corrupt the stored worker UID with the same concrete word in
	// both variants — what any input-driven overflow achieves.
	corrupted, err := runSpec(spec, map[string]nvariant.Word{"worker_uid": 0})
	if err != nil {
		return err
	}
	fmt.Printf("corrupted run: detected=%v — %v\n", corrupted.Detected(), corrupted.Alarm)
	return nil
}

func runSpec(spec *nvariant.DiversitySpec, corrupt map[string]nvariant.Word) (*nvariant.Result, error) {
	world, err := nvariant.NewWorld()
	if err != nil {
		return nil, err
	}
	if err := nvariant.SetupUnsharedPasswd(world, spec.UIDFuncs()); err != nil {
		return nil, err
	}
	progs, err := nvariant.BuildMinicVariants("unixd", nvariant.SampleServerSource, spec.UIDFuncs(),
		nvariant.MinicInterpOptions{CorruptOnAssign: corrupt})
	if err != nil {
		return nil, err
	}
	return nvariant.Run(world, nvariant.NewNetwork(0), progs,
		nvariant.WithSpec(spec),
		nvariant.WithUnsharedFiles("/etc/passwd", "/etc/group"),
	)
}
