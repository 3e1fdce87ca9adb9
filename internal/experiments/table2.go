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

// Table2Row reports one detection syscall: its paper signature and the
// observed behaviour with agreeing and with divergent variants.
type Table2Row struct {
	// Call is the syscall name.
	Call string
	// Signature is the paper's function signature.
	Signature string
	// AgreeClean is true when equivalent per-variant arguments pass.
	AgreeClean bool
	// DivergeDetected is true when inequivalent arguments alarm.
	DivergeDetected bool
}

// Table2Result is the regenerated Table 2 with behavioural evidence.
type Table2Result struct {
	// Rows cover each detection syscall.
	Rows []Table2Row
}

var table2Signatures = map[sys.Num]string{
	sys.UIDValue: "uid_t uid_value(uid_t)",
	sys.CondChk:  "bool cond_chk(bool)",
	sys.CCEq:     "bool cc_eq(uid_t, uid_t)",
	sys.CCNeq:    "bool cc_neq(uid_t, uid_t)",
	sys.CCLt:     "bool cc_lt(uid_t, uid_t)",
	sys.CCLeq:    "bool cc_leq(uid_t, uid_t)",
	sys.CCGt:     "bool cc_gt(uid_t, uid_t)",
	sys.CCGeq:    "bool cc_geq(uid_t, uid_t)",
}

// RunTable2 exercises every Table 2 detection syscall twice under the
// UID variation: once with properly reexpressed (equivalent) values,
// once with identical concrete (attacker-shaped) values.
func RunTable2() (Table2Result, error) {
	pair := reexpress.UIDVariation().Pair
	var res Table2Result
	for _, num := range sys.DetectionCalls() {
		num := num
		agree, err := runDetection(pair, num, true)
		if err != nil {
			return res, fmt.Errorf("%s agree: %w", num, err)
		}
		diverge, err := runDetection(pair, num, false)
		if err != nil {
			return res, fmt.Errorf("%s diverge: %w", num, err)
		}
		res.Rows = append(res.Rows, Table2Row{
			Call:            num.String(),
			Signature:       table2Signatures[num],
			AgreeClean:      agree.Clean,
			DivergeDetected: diverge.Alarm != nil,
		})
	}
	return res, nil
}

// runDetection runs a 2-variant group issuing one detection call.
// When reexpress is true the arguments are correctly transformed per
// variant; otherwise both variants pass identical concrete values (the
// attacker's only option).
func runDetection(pair reexpress.Pair, num sys.Num, reexpressArgs bool) (*nvkernel.Result, error) {
	world, err := vos.NewWorld()
	if err != nil {
		return nil, err
	}
	canonical := []word.Word{1000, 30}
	progs := make([]sys.Program, 2)
	for i := 0; i < 2; i++ {
		f := pair.Funcs()[i]
		progs[i] = sys.ProgramFunc{ProgName: "detect", Fn: func(ctx *sys.Context) error {
			args := make([]word.Word, 0, 2)
			spec, _ := sys.SpecFor(num)
			for j := range spec.Args {
				v := canonical[j]
				if spec.Args[j] == sys.ArgBool {
					v = 1
					if !reexpressArgs && ctx.Variant == 1 {
						v = 0 // divergent condition value
					}
					args = append(args, v)
					continue
				}
				if reexpressArgs {
					rv, err := f.Apply(v)
					if err != nil {
						return err
					}
					args = append(args, rv)
				} else {
					args = append(args, v) // identical concrete value
				}
			}
			if _, err := ctx.Syscall(sys.Call{Num: num, Args: args}); err != nil {
				return err
			}
			return ctx.Exit(0)
		}}
	}
	return nvkernel.Run(world, simnet.New(0), progs, nvkernel.WithUIDVariation(pair))
}

// Fprint renders the table.
func (r Table2Result) Fprint(w io.Writer) {
	fmt.Fprintln(w, "Table 2. Detection System Calls.")
	fmt.Fprintf(w, "%-12s %-28s %-18s %-18s\n", "Call", "Signature", "equiv args", "identical args")
	for _, row := range r.Rows {
		agree := "clean"
		if !row.AgreeClean {
			agree = "FALSE ALARM"
		}
		diverge := "DETECTED"
		if !row.DivergeDetected {
			diverge = "MISSED"
		}
		fmt.Fprintf(w, "%-12s %-28s %-18s %-18s\n", row.Call, row.Signature, agree, diverge)
	}
}
