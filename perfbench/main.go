// Command perfbench is PRIONN's end-to-end benchmark. It launches the
// prionnd binary built from the checkout, replays synthetic-trace job
// submissions at it over loopback from one process, checks every answer
// against an in-process reference computed from the same model
// checkpoint, and prints one JSON result line.
//
// Run it through run.sh, which builds prionnd and this program first:
//
//	bash perfbench/run.sh --workload submit-f32 --seed 1 --seconds 40 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics (what a
// client of prionnd sees). With --trace 1 the same inputs are replayed
// with client-side spans, then in process through each layer's public
// functions, and the result carries the per-layer metrics. Spans, the
// roofline ledger and a full record of host, inputs and phases go to
// the run directory.
//
//	perfbench --compare a.json b.json
//
// compares two recorded runs metric by metric and refuses when they
// were recorded on different hosts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	prionnd  string
	dir      string
}

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload name, or all: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed for the trace, the fixture and the daemon")
	fs.IntVar(&o.seconds, "seconds", 40, "measured seconds per run")
	fs.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	fs.StringVar(&o.prionnd, "prionnd", "", "path of the prionnd binary under test")
	fs.StringVar(&o.dir, "dir", "", "directory for fixtures, spans and run records")
	compare := fs.Bool("compare", false, "compare the two run records named as arguments")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	logf := func(format string, args ...any) { _, _ = fmt.Fprintf(stderr, "perfbench: "+format+"\n", args...) }
	if *compare {
		if fs.NArg() != 2 {
			logf("--compare needs two run records")
			return 2
		}
		if err := compareRecords(fs.Arg(0), fs.Arg(1), stdout); err != nil {
			logf("%v", err)
			return 1
		}
		return 0
	}
	o.trace = traceFlag == 1
	names := []string{o.workload}
	if o.workload == "all" {
		names = workloadNames()
	}
	for _, n := range names {
		if _, ok := workloads[n]; !ok {
			logf("unknown workload %q (want all or one of %s)", n, strings.Join(workloadNames(), ", "))
			return 2
		}
	}
	switch {
	case traceFlag != 0 && traceFlag != 1:
		logf("--trace must be 0 or 1")
		return 2
	case o.seconds < 1:
		logf("--seconds must be at least 1")
		return 2
	case o.prionnd == "" || o.dir == "":
		logf("--prionnd and --dir are required (run.sh sets both)")
		return 2
	}
	if _, err := os.Stat(o.prionnd); err != nil {
		logf("prionnd binary: %v", err)
		return 1
	}
	code := 0
	for _, n := range names {
		res, err := runWorkload(workloads[n], o, logf)
		if err != nil {
			logf("%s: %v", n, err)
			return 1
		}
		if !res.Correct {
			code = 1
		}
		out, err := json.Marshal(res)
		if err != nil {
			logf("%v", err)
			return 1
		}
		if _, err := fmt.Fprintln(stdout, string(out)); err != nil {
			logf("%v", err)
			return 1
		}
	}
	if len(names) == 1 {
		// The result line carries correctness; a run that completed
		// exits 0 either way.
		return 0
	}
	return code
}

// runWorkload runs one workload and writes its record.
func runWorkload(w workload, o options, logf func(string, ...any)) (result, error) {
	trace := 0
	if o.trace {
		trace = 1
	}
	runDir := filepath.Join(o.dir, fmt.Sprintf("%s-seed%d-trace%d-%d", w.name, o.seed, trace, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return result{}, err
	}
	rec, err := benchmark(w, o, runDir, logf)
	// Checkpoints are tens of megabytes each; the record, spans and
	// ledger are what a run leaves behind.
	ckpts, _ := filepath.Glob(filepath.Join(runDir, "*.ckpt"))
	for _, c := range ckpts {
		_ = os.Remove(c)
	}
	if err != nil {
		return result{}, err
	}
	path := filepath.Join(runDir, "record.json")
	if err := writeJSON(path, rec); err != nil {
		return result{}, err
	}
	logf("run record: %s", path)
	return rec.Result, nil
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints: whether every answer was right,
// how many predictions were attempted and failed, and the metrics.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is everything one run knows about itself, written next to its
// spans so two runs can be compared later.
type record struct {
	Workload string        `json:"workload"`
	Seed     int64         `json:"seed"`
	Seconds  int           `json:"seconds"`
	Traced   bool          `json:"traced"`
	Host     hostRecord    `json:"host"`
	Inputs   inputsRecord  `json:"inputs"`
	Phases   []phaseReport `json:"phases"`
	// StealShare is the share of the machine's CPU time the hypervisor
	// gave to other guests during the run: on a shared host, a slower
	// run with a high share was slowed by its neighbours.
	StealShare float64 `json:"host_steal_share"`
	// Recorded holds the end-to-end figures an untraced run prints
	// but does not report as metrics.
	Recorded map[string]metric `json:"recorded"`
	Result   result            `json:"result"`
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// compareRecords prints the metric-by-metric ratio of two run records
// of the same workload, refusing records from different hosts.
func compareRecords(pathA, pathB string, stdout io.Writer) error {
	var a, b record
	for _, x := range []struct {
		path string
		rec  *record
	}{{pathA, &a}, {pathB, &b}} {
		data, err := os.ReadFile(x.path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, x.rec); err != nil {
			return fmt.Errorf("%s: %w", x.path, err)
		}
	}
	if d := a.Host.differs(b.Host); d != "" {
		return fmt.Errorf("refusing to compare runs recorded on different hosts: %s", d)
	}
	var out strings.Builder
	fmt.Fprintf(&out, "%-32s %14.4f %14.4f\n", "host_steal_share", a.StealShare, b.StealShare)
	if a.Workload != b.Workload || a.Traced != b.Traced {
		return fmt.Errorf("refusing to compare %s (traced %v) with %s (traced %v)", a.Workload, a.Traced, b.Workload, b.Traced)
	}
	names := make([]string, 0, len(a.Result.Metrics))
	for n := range a.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		ma := a.Result.Metrics[n]
		mb, ok := b.Result.Metrics[n]
		if !ok {
			fmt.Fprintf(&out, "%-32s %14.6g %-8s (missing in %s)\n", n, ma.Value, ma.Unit, pathB)
			continue
		}
		ratio := "-"
		if ma.Value != 0 {
			ratio = fmt.Sprintf("%.3f", mb.Value/ma.Value)
		}
		fmt.Fprintf(&out, "%-32s %14.6g %14.6g %-8s ratio %s\n", n, ma.Value, mb.Value, ma.Unit, ratio)
	}
	_, err := io.WriteString(stdout, out.String())
	return err
}

// msOf and usOf express a duration in milliseconds and microseconds.
func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func usOf(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
