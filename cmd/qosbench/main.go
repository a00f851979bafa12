// Command qosbench regenerates the paper's evaluation figures and
// prints them as aligned tables.  (The performance benchmark is the
// bench/ module: go run -C bench .)
//
// Usage:
//
//	qosbench -exp fig6|fig7|fig8|fig9|fig10|all [-steps N] [-csv]
//	qosbench ... [-obs-addr :9090]
//
// With -obs-addr, pipeline instrumentation is enabled and /metrics,
// /debug/qos and /debug/decisions are served while the experiments run.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"slices"

	"adaptiveqos/internal/experiments"
	"adaptiveqos/internal/inference"
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
		srv, err := obs.Serve(*obsAddr, obs.Endpoint{Path: "/debug/decisions",
			Desc: "inference decision audit (?client=<id>)", Handler: http.HandlerFunc(inference.ServeDecisions)})
		if err != nil {
			fmt.Fprintf(os.Stderr, "qosbench: observability endpoint: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		log.Printf("qosbench: serving /metrics and /debug/qos on %s", *obsAddr)
	}

	order := []string{"fig6", "fig7", "fig8", "fig9", "fig10"}
	todo := order
	if *exp != "all" {
		if !slices.Contains(order, *exp) {
			fmt.Fprintf(os.Stderr, "qosbench: unknown experiment %q (want fig6..fig10 or all)\n", *exp)
			os.Exit(2)
		}
		todo = []string{*exp}
	}
	for i, name := range todo {
		if i > 0 {
			fmt.Println()
		}
		if err := experiments.Write(os.Stdout, name, *steps, *csv); err != nil {
			fmt.Fprintf(os.Stderr, "qosbench: %s: %v\n", name, err)
			os.Exit(1)
		}
	}
}
