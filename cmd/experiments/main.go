// Command experiments regenerates the paper's tables and figures.
package main

import (
	"flag"
	"fmt"
	"os"

	"nvariant/internal/chaos"
	"nvariant/internal/experiments"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run() error {
	workers := flag.Int("workers", 0, "prefork worker-lane count for the nsweep servers (0 = serial)")
	seed := flag.Int64("seed", 1, "chaos campaign seed")
	flag.Parse()
	which := flag.Args()
	if len(which) == 0 {
		which = []string{"table1", "table2", "table3", "figure1", "figure2", "overwrite", "changes", "nsweep", "chaos"}
	}
	for _, name := range which {
		switch name {
		case "table1":
			res, err := experiments.RunTable1()
			if err != nil {
				return err
			}
			res.Fprint(os.Stdout)
		case "table2":
			res, err := experiments.RunTable2()
			if err != nil {
				return err
			}
			res.Fprint(os.Stdout)
		case "table3":
			res, err := experiments.RunTable3(experiments.DefaultTable3Options())
			if err != nil {
				return err
			}
			res.Fprint(os.Stdout)
		case "figure1":
			res, err := experiments.RunFigure1()
			if err != nil {
				return err
			}
			res.Fprint(os.Stdout)
		case "figure2":
			res, err := experiments.RunFigure2()
			if err != nil {
				return err
			}
			res.Fprint(os.Stdout)
		case "overwrite":
			res, err := experiments.RunOverwriteCampaign()
			if err != nil {
				return err
			}
			res.Fprint(os.Stdout)
		case "changes":
			res, err := experiments.RunChanges()
			if err != nil {
				return err
			}
			res.Fprint(os.Stdout)
		case "nsweep":
			opts := experiments.DefaultNSweepOptions()
			opts.Workers = *workers
			res, err := experiments.RunNSweep(opts)
			if err != nil {
				return err
			}
			res.Fprint(os.Stdout)
		case "chaos":
			res, err := chaos.Run(chaos.DefaultConfig(*seed))
			if err != nil {
				return err
			}
			res.Fprint(os.Stdout)
		case "faultonly":
			res, err := chaos.Run(chaos.FaultOnlyConfig(*seed))
			if err != nil {
				return err
			}
			res.Fprint(os.Stdout)
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
		fmt.Println()
	}
	return nil
}
