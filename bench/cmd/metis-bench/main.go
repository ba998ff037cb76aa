// Command metis-bench is the repository's benchmark. It runs this
// checkout's metis-serve and metis-exp as subprocesses, offers them each
// workload's load, checks every answer against a reference, and prints every
// metric as `name value unit`, followed by one JSON result line per
// workload. bench/run.sh builds it and the binaries it measures; run that
// from the checkout root:
//
//	bash bench/run.sh -workload all -seed 1
//	bash bench/run.sh -workload ring-small -seed 3 -trace 1
//
// With -trace 0 the JSON line carries the end-to-end metrics; with -trace 1
// it carries the per-layer metrics, from a run whose second half records
// spans and from timing each layer's exported functions on the workload's
// own requests (metis-layers). The command exits non-zero when any answer
// is wrong or any operation failed.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/bench/workload"
)

// env is what every workload run shares.
type env struct {
	bin     string // directory of the built binaries (metis-serve, metis-exp, peakrss, metis-layers)
	run     string // this invocation's scratch directory
	traces  string // where span files are written
	nproc   int
	seed    int64
	seconds float64
	trace   bool
	fx      *workload.Fixture
	// cold is the fixture's cold sweep: the first set-up sample of distill.
	cold workload.Sweep
}

// metric is one printed number.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is one workload run.
type result struct {
	attempted, failed int64
	wrong             int64
	// metrics are gated (the end-to-end set, or with -trace 1 the per-layer
	// set); extra are printed but never land in the JSON line.
	metrics, extra []metric
	// notes are `# ...` lines: phase counts and run facts.
	notes []string
}

func (r *result) note(name string, v float64, unit string) {
	r.extra = append(r.extra, metric{name, v, unit})
}

// gated are the end-to-end metrics BENCHMARK.json bounds. The rest of the
// end-to-end set is recorded but not gated: on a shared host their spread
// from run to run is wider than any bound a regression gate can use (see
// bench/README.md).
var gated = map[string]bool{"rss_mb": true, "setup_s": true}

// endToEnd files end-to-end metrics: the gated ones into the result line
// of an untraced run, everything else into the printed-only lines.
func (r *result) endToEnd(trace bool, ms ...metric) {
	for _, m := range ms {
		if gated[m.name] && !trace {
			r.metrics = append(r.metrics, m)
		} else {
			r.extra = append(r.extra, m)
		}
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("metis-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name, or all")
	seed := fs.Int64("seed", 1, "seed of request rows, arrivals and model mix")
	seconds := fs.Float64("seconds", 15, "measured seconds per workload")
	trace := fs.Int("trace", 0, "1 = report per-layer metrics from a traced run")
	bin := fs.String("bin", "", "directory of the built binaries (set by run.sh)")
	work := fs.String("work", "", "scratch directory (set by run.sh)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	specs := workload.Specs
	if *name != "all" {
		s, err := workload.Lookup(*name)
		if err != nil {
			fmt.Fprintln(stderr, "metis-bench:", err)
			return 2
		}
		specs = []workload.Spec{s}
	}
	if *bin == "" || *work == "" || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "metis-bench: need -bin, -work, -seconds > 0 and -trace 0|1; run it through bench/run.sh")
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	e := &env{
		bin: *bin, nproc: runtime.NumCPU(), seed: *seed, seconds: *seconds, trace: *trace == 1,
		run:    filepath.Join(*work, fmt.Sprintf("run-%d", os.Getpid())),
		traces: filepath.Join(*work, "traces"),
	}
	runtime.GOMAXPROCS(e.nproc)
	if err := os.MkdirAll(e.run, 0o755); err != nil {
		fmt.Fprintln(stderr, "metis-bench:", err)
		return 1
	}
	defer os.RemoveAll(e.run)

	var err error
	if e.fx, e.cold, err = workload.BuildFixture(ctx, e.bin, filepath.Join(e.run, "fixture"), e.nproc); err != nil {
		fmt.Fprintln(stderr, "metis-bench: fixture:", err)
		return 1
	}
	printMeta(stdout, e)
	code := 0
	for _, s := range specs {
		var res *result
		if s.Serving {
			res, err = runServing(ctx, e, s)
		} else {
			res, err = runDistill(ctx, e)
		}
		if err != nil {
			fmt.Fprintf(stderr, "metis-bench: %s: %v\n", s.Name, err)
			return 1
		}
		if !printResult(stdout, s.Name, res) {
			code = 1
		}
	}
	return code
}

func (e *env) exe(name string) string { return filepath.Join(e.bin, name) }

// phases splits the measured seconds of a serving run: warm-up, then the
// fixed-rate phase, then the closed loop (2 : 15 : 8). A traced run spends
// the closed-loop share on a second, traced, fixed-rate phase instead.
func (e *env) phases() (warm, open, closed time.Duration) {
	t := time.Duration(e.seconds * float64(time.Second))
	warm, open = t*2/25, t*15/25
	closed = t - warm - open
	if e.trace {
		open = (t - warm) / 2
		closed = open
	}
	return
}

// printMeta writes the run's facts as comment lines.
func printMeta(w io.Writer, e *env) {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	fmt.Fprintf(w, "# commit %s\n# go %s\n# kernel %s\n# nproc %d\n# gen_gomaxprocs %d\n# daemon_gomaxprocs %d\n# seed %d\n# seconds %g\n# trace %v\n",
		commit, runtime.Version(), kernel, e.nproc, runtime.GOMAXPROCS(0), e.nproc, e.seed, e.seconds, e.trace)
	fmt.Fprintf(w, "# fixture cold sweep %.3fs, %d served trees\n", e.cold.Wall.Seconds(), len(e.fx.Trees))
}

// printResult writes a workload's metric lines and its JSON result line,
// reporting whether the run was correct.
func printResult(w io.Writer, workloadName string, r *result) bool {
	fmt.Fprintf(w, "# workload %s\n", workloadName)
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, m := range slices.Concat(r.metrics, r.extra) {
		fmt.Fprintf(w, "%s %s %s\n", m.name, strconv.FormatFloat(m.value, 'g', -1, 64), m.unit)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{
		Correct:   r.wrong == 0 && r.failed == 0,
		Attempted: max(r.attempted, 1),
		Failed:    r.failed + r.wrong,
		Metrics:   map[string]value{},
	}
	for _, m := range r.metrics {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		// Only a NaN or Inf metric can fail to encode; that is a bug here.
		panic(err)
	}
	fmt.Fprintf(w, "%s\n", line)
	return out.Correct
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// errLayers marks a failure of the per-layer subprocess.
var errLayers = errors.New("metis-layers failed")
