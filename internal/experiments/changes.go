package experiments

import (
	"fmt"
	"io"

	"nvariant/internal/minic"
	"nvariant/internal/nvkernel"
	"nvariant/internal/reexpress"
	"nvariant/internal/simnet"
	"nvariant/internal/sys"
	"nvariant/internal/transform"
	"nvariant/internal/vos"
	"nvariant/internal/word"
)

// ChangesResult reproduces the §4 transformation-effort accounting:
// the paper reports 73 manual changes to Apache; the automated
// transformer reports its own breakdown on the minic port of the
// server's UID module, plus behavioural validation of the transformed
// variants.
type ChangesResult struct {
	// Measured is the automated transformer's change breakdown.
	Measured transform.Counts
	// Paper is the paper's manual breakdown (15/16/22/20 = 73).
	Paper transform.Counts
	// InferredUIDVars lists int variables promoted by the Splint-style
	// analysis.
	InferredUIDVars []string
	// NormalClean reports that the transformed 2-variant system ran
	// benign workload with no false alarm (normal equivalence, §2.2).
	NormalClean bool
	// CorruptionDetected reports that identical-concrete-value UID
	// corruption was detected (the detection property, §2.3).
	CorruptionDetected bool
	// TransformedSource is variant 1's generated source (for display).
	TransformedSource string
}

// RunChanges transforms the case-study source for both variants,
// reports the counts, and validates both security properties of the
// transformed system.
func RunChanges() (ChangesResult, error) {
	pair := reexpress.UIDVariation().Pair
	res := ChangesResult{Paper: transform.PaperCounts()}

	r1, err := transform.Apply(transform.SampleServerSource, pair.R1)
	if err != nil {
		return res, fmt.Errorf("transform variant 1: %w", err)
	}
	res.Measured = r1.Counts
	res.InferredUIDVars = r1.InferredUIDVars
	res.TransformedSource = r1.Program.Emit()

	normal, err := runTransformedSample(pair, nil)
	if err != nil {
		return res, err
	}
	res.NormalClean = normal.Clean && normal.Status == 0

	corrupt, err := runTransformedSample(pair, map[string]word.Word{"worker_uid": 0})
	if err != nil {
		return res, err
	}
	res.CorruptionDetected = corrupt.Alarm != nil &&
		corrupt.Alarm.Reason == nvkernel.ReasonUIDDivergence
	return res, nil
}

func runTransformedSample(pair reexpress.Pair, corrupt map[string]word.Word) (*nvkernel.Result, error) {
	world, err := vos.NewWorld()
	if err != nil {
		return nil, err
	}
	if err := nvkernel.SetupUnsharedPasswd(world, pair.Funcs()); err != nil {
		return nil, err
	}
	compiled, err := transform.BuildVariants("unixd", transform.SampleServerSource, pair.Funcs(),
		minic.InterpOptions{CorruptOnAssign: corrupt})
	if err != nil {
		return nil, err
	}
	progs := []sys.Program{compiled[0].Program, compiled[1].Program}
	return nvkernel.Run(world, simnet.New(0), progs,
		nvkernel.WithSpec(reexpress.UncheckedSpec(2, reexpress.UIDLayer(pair.Funcs()...))),
		nvkernel.WithUnsharedFiles("/etc/passwd", "/etc/group"),
	)
}

// Fprint renders the change-count comparison.
func (r ChangesResult) Fprint(w io.Writer) {
	fmt.Fprintln(w, "§4 transformation changes (automated transformer vs the paper's manual Apache count):")
	fmt.Fprintf(w, "  %-28s %10s %10s\n", "category", "this repo", "paper")
	fmt.Fprintf(w, "  %-28s %10d %10d\n", "UID constants reexpressed", r.Measured.Constants, r.Paper.Constants)
	fmt.Fprintf(w, "  %-28s %10d %10d\n", "uid_value insertions", r.Measured.UIDValues, r.Paper.UIDValues)
	fmt.Fprintf(w, "  %-28s %10d %10d\n", "UID comparisons → cc_*", r.Measured.Comparisons, r.Paper.Comparisons)
	fmt.Fprintf(w, "  %-28s %10d %10d\n", "cond_chk insertions", r.Measured.CondChks, r.Paper.CondChks)
	fmt.Fprintf(w, "  %-28s %10d %10s\n", "UID log scrubs", r.Measured.LogScrubs, "1 (§4)")
	fmt.Fprintf(w, "  %-28s %10d %10d\n", "total", r.Measured.Total(), r.Paper.Total())
	fmt.Fprintf(w, "  inferred uid_t variables: %v\n", r.InferredUIDVars)
	fmt.Fprintf(w, "  transformed system: normal equivalence clean = %v, corruption detected = %v\n",
		r.NormalClean, r.CorruptionDetected)
}
