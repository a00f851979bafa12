// Command qosbench regenerates the paper's evaluation figures and
// prints them as aligned tables.  (The performance benchmark is the
// bench/ module: go run -C bench .)
//
// Usage:
//
//	qosbench -exp fig6|fig7|fig8|fig9|fig10|all [-steps N] [-csv]
//	qosbench ... [-obs-addr :9090]
//
// With -obs-addr, pipeline instrumentation is enabled and /metrics +
// /debug/qos are served while the experiments run.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"adaptiveqos/internal/experiments"
	"adaptiveqos/internal/metrics"
	"adaptiveqos/internal/obs"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: fig6, fig7, fig8, fig9, fig10 or all")
	steps := flag.Int("steps", 8, "sweep steps for the fig6/fig7 load sweeps")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	obsAddr := flag.String("obs-addr", "", "serve /metrics and /debug/qos on this address (enables instrumentation)")
	flag.Parse()

	if *obsAddr != "" {
		obs.SetEnabled(true)
		srv, err := obs.Serve(*obsAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "qosbench: observability endpoint: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		log.Printf("qosbench: serving /metrics and /debug/qos on %s", *obsAddr)
	}

	printTable := func(title string, t *metrics.Table) error {
		if *csv {
			return t.RenderCSV(os.Stdout)
		}
		fmt.Println(title)
		fmt.Print(t)
		return nil
	}

	runners := map[string]func() error{
		"fig6": func() error {
			table, err := experiments.Fig6(*steps)
			if err != nil {
				return err
			}
			return printTable("Figure 6 — image viewer parameters vs host page faults", table)
		},
		"fig7": func() error {
			table, err := experiments.Fig7(*steps)
			if err != nil {
				return err
			}
			return printTable("Figure 7 — image viewer parameters vs CPU load", table)
		},
		"fig8": func() error {
			table, err := experiments.Fig8()
			if err != nil {
				return err
			}
			return printTable("Figure 8 — two wireless clients, varying distance of client A", table)
		},
		"fig9": func() error {
			table, err := experiments.Fig9()
			if err != nil {
				return err
			}
			return printTable("Figure 9 — two wireless clients, varying power of client A", table)
		},
		"fig10": func() error {
			res, err := experiments.Fig10()
			if err != nil {
				return err
			}
			if err := printTable("Figure 10 — three wireless clients, varying distance and power", res.Table); err != nil {
				return err
			}
			if !*csv {
				fmt.Printf("\nSIR drop when client 2 joined: %.0f%% (paper: ~90%%)\n", res.DropOnSecondJoin*100)
				fmt.Printf("further drop when client 3 joined: %.0f%% (paper: ~23%%)\n", res.DropOnThirdJoin*100)
				fmt.Printf("estimated session limit at text threshold: %d equal clients\n", res.AdmissionLimit)
			}
			return nil
		},
	}

	order := []string{"fig6", "fig7", "fig8", "fig9", "fig10"}
	var todo []string
	if *exp == "all" {
		todo = order
	} else if _, ok := runners[*exp]; ok {
		todo = []string{*exp}
	} else {
		fmt.Fprintf(os.Stderr, "qosbench: unknown experiment %q (want fig6..fig10 or all)\n", *exp)
		os.Exit(2)
	}

	for i, name := range todo {
		if i > 0 {
			fmt.Println()
		}
		if err := runners[name](); err != nil {
			fmt.Fprintf(os.Stderr, "qosbench: %s: %v\n", name, err)
			os.Exit(1)
		}
	}
}
