// Package experiments regenerates every table and figure of the
// paper's evaluation: Table 1 (reexpression functions), Table 2
// (detection system calls), Table 3 (performance), the Figure 1 and
// Figure 2 detection semantics, the §3.2 partial-overwrite campaign
// and the §4 transformation change counts. Each runner returns a
// structured result and can render itself in the paper's layout.
package experiments

import (
	"fmt"
	"io"

	"nvariant/internal/reexpress"
	"nvariant/internal/word"
)

// Table1Row is one catalogue row plus its verified properties.
type Table1Row struct {
	// Variation is the row's name.
	Variation string
	// Target is the diversified type.
	Target string
	// R0 and R1 describe the reexpression functions.
	R0, R1 string
	// InverseHolds records the §2.2 inverse-property check.
	InverseHolds bool
	// DisjointHolds records the §2.3 disjointness-property check.
	DisjointHolds bool
}

// Table1Result is the regenerated Table 1.
type Table1Result struct {
	// Rows are the four variations in paper order.
	Rows []Table1Row
}

// RunTable1 rebuilds Table 1 and verifies both security properties of
// every variation on the adversarial boundary sample set.
func RunTable1() (Table1Result, error) {
	samples := reexpress.BoundarySamples()
	var res Table1Result
	for _, v := range reexpress.Table1() {
		row := Table1Row{
			Variation: v.Name,
			Target:    v.Target.String(),
			R0:        v.Pair.R0.Name(),
			R1:        v.Pair.R1.Name(),
		}
		row.InverseHolds = reexpress.CheckInverse(v.Pair.R0, samples) == nil &&
			reexpress.CheckInverse(v.Pair.R1, samples) == nil
		row.DisjointHolds = reexpress.CheckDisjoint(v.Pair.R0, v.Pair.R1, samples) == nil
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Fprint renders the table in the paper's layout.
func (r Table1Result) Fprint(w io.Writer) {
	fmt.Fprintln(w, "Table 1. Reexpression Functions.")
	fmt.Fprintf(w, "%-38s %-12s %-34s %-34s %-8s %-9s\n",
		"Variation", "Target Type", "R0", "R1", "Inverse", "Disjoint")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-38s %-12s %-34s %-34s %-8v %-9v\n",
			row.Variation, row.Target, row.R0, row.R1, row.InverseHolds, row.DisjointHolds)
	}
}

// UIDRepresentationExamples demonstrates the UID variation's concrete
// representations (§3.2): for each canonical UID, the value each
// variant stores.
func UIDRepresentationExamples(uids []word.Word) ([][3]word.Word, error) {
	pair := reexpress.UIDVariation().Pair
	out := make([][3]word.Word, 0, len(uids))
	for _, u := range uids {
		r0, err := pair.R0.Apply(u)
		if err != nil {
			return nil, fmt.Errorf("apply R0(%s): %w", u, err)
		}
		r1, err := pair.R1.Apply(u)
		if err != nil {
			return nil, fmt.Errorf("apply R1(%s): %w", u, err)
		}
		out = append(out, [3]word.Word{u, r0, r1})
	}
	return out, nil
}
