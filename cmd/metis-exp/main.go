// Command metis-exp regenerates the paper's tables and figures, and drives
// the generic scenario pipeline over every registered domain.
//
// Usage:
//
//	metis-exp -exp fig7            # one experiment
//	metis-exp -exp all             # everything
//	metis-exp -list                # list experiment ids
//	metis-exp -exp fig15a -scale full
//	metis-exp -exp all -cache ~/.cache/metis   # reuse trained teachers
//
//	metis-exp -scenario abr               # one teacher→student pipeline run
//	metis-exp -scenario all -scale tiny   # every scenario, seconds total
//	metis-exp -scenario jobs,nfv -out models   # persist students + manifests
//	metis-exp -list-scenarios
//
// -cache names the scenario engine's artifact cache, which -exp and
// -scenario share: every trained teacher and every distillation corpus
// (the abr corpus included, which -exp collects for the Metis+Pensieve
// tree when it is missing) is persisted there as a versioned artifact, and
// later runs of either mode at the same scale load it instead of rebuilding
// it. A figure run after a -scenario run therefore trains nothing and runs
// no DAgger. With -out, each scenario run writes its student model and a
// pipeline manifest (provenance record) as artifacts servable or
// inspectable by metis-serve.
//
// Scales: figures accept test (seconds) and full (minutes); scenarios
// additionally accept tiny (the whole -scenario all sweep finishes in
// seconds). The figures read their scale knobs from the scenario tables
// (internal/scenarios), so a figure and a pipeline run at one scale train
// and distil alike.
//
// Experiment identifiers follow the paper's numbering (fig7, fig9, fig11,
// fig12, fig12b, fig12c, fig13, fig14, fig15a, fig15b, fig16a, fig16b,
// fig17a, fig17b, fig18, fig20, fig27, fig28, fig29, fig31, table3, table5).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/scenario"
	_ "repro/internal/scenarios" // register the built-in scenarios
)

func main() {
	exp := flag.String("exp", "", "experiment id (or 'all')")
	scen := flag.String("scenario", "", "scenario name, comma list, or 'all': run the teacher→student pipeline")
	scale := flag.String("scale", "test", "scale: test (seconds) or full (minutes); scenarios also accept tiny")
	cache := flag.String("cache", "", "artifact cache directory shared by -exp and -scenario: trained teachers persist across runs")
	out := flag.String("out", "", "scenario runs: write student + manifest artifacts to this directory")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0),
		"worker goroutines for the parallel stages (0 = all cores, 1 = serial; models and figure output are identical at any setting)")
	list := flag.Bool("list", false, "list available experiment ids")
	listScen := flag.Bool("list-scenarios", false, "list registered scenario names")
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(experiments.Names(), "\n"))
		return
	}
	if *listScen {
		for _, name := range scenario.Names() {
			sc, _ := scenario.Get(name)
			fmt.Printf("%-12s %s\n", name, sc.Describe())
		}
		return
	}
	if (*exp == "") == (*scen == "") {
		fmt.Fprintln(os.Stderr, "set exactly one of -exp (figures/tables) or -scenario (pipeline runs); see -list and -list-scenarios")
		flag.Usage()
		os.Exit(2)
	}
	w := *workers
	if w < 0 {
		fmt.Fprintf(os.Stderr, "-workers must be non-negative (got %d)\n", w)
		os.Exit(2)
	}
	if *cache != "" {
		if err := os.MkdirAll(*cache, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "cannot create cache directory: %v\n", err)
			os.Exit(1)
		}
	}

	if *scen != "" {
		runScenarios(*scen, *scale, *cache, *out, w)
		return
	}

	if *scale != scenario.ScaleTest && *scale != scenario.ScaleFull {
		fmt.Fprintf(os.Stderr, "-exp supports scales test and full (got %q)\n", *scale)
		os.Exit(2)
	}
	f := experiments.NewFixture(*scale)
	f.Workers = w
	f.CacheDir = *cache

	run := func(name string) {
		runner, ok := experiments.Registry[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; try -list\n", name)
			os.Exit(2)
		}
		start := time.Now()
		res := runner(f)
		fmt.Printf("=== %s (scale %s, %v) ===\n%s\n", name, *scale, time.Since(start).Round(time.Millisecond), res)
	}
	if *exp == "all" {
		for _, name := range experiments.Names() {
			run(name)
		}
	} else {
		for _, name := range strings.Split(*exp, ",") {
			run(strings.TrimSpace(name))
		}
	}
}

// runScenarios drives the generic pipeline over the requested scenarios.
func runScenarios(scen, scale, cache, out string, workers int) {
	if out != "" {
		if err := os.MkdirAll(out, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "cannot create output directory: %v\n", err)
			os.Exit(1)
		}
	}
	names := scenario.Names()
	if scen != "all" {
		names = nil
		for _, n := range strings.Split(scen, ",") {
			names = append(names, strings.TrimSpace(n))
		}
	}
	p := &scenario.Pipeline{Config: scenario.Config{
		Scale:    scale,
		Workers:  workers,
		CacheDir: cache,
		OutDir:   out,
	}}
	start := time.Now()
	reports, err := p.RunAll(names)
	for i, rep := range reports {
		if rep == nil {
			continue
		}
		fmt.Printf("=== %s ===\n%s\n", names[i], rep)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("ran %d scenarios in %v\n", len(reports), time.Since(start).Round(time.Millisecond))
}
