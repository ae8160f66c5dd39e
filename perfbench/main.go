// Command perfbench is the repository benchmark: four workloads, from the
// sequential site step to TCP and HTTP serving, each printing its end-to-
// end metrics (or, traced, its per-layer split) and failing the run when a
// correctness check fails. Run it through run.sh, which builds it and the
// sketchd server from the checkout:
//
//	bash perfbench/run.sh --workload da1-seq --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh compare RUN_A.json RUN_B.json
//
// The last line of standard output is the result object; every line
// before it is a human-readable note. Each run also writes a record with
// its machine fingerprint under -out, and compare refuses to set side by
// side two records whose fingerprints differ.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// workload is one benchmark input set.
type workload struct {
	name string
	run  func(env, *report) error
	// unlisted marks a workload that runs by name but that BENCHMARK.json
	// leaves out, because its listed metrics do not hold steady between
	// runs (METRICS.md says which and by how much).
	unlisted bool
}

var workloads = []workload{
	{name: "da1-seq", run: runDA1Seq},
	{name: "da2-pipeline", run: runDA2Pipeline},
	{name: "net-tcp", run: runNetTCP},
	{name: "serve-mixed", run: runServeMixed, unlisted: true},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: da1-seq, da2-pipeline, net-tcp or serve-mixed")
	seed := fs.Int64("seed", 1, "input seed; equal seeds give equal inputs")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	traceMode := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	sketchd := fs.String("sketchd", "", "path to a built sketchd binary")
	out := fs.String("out", filepath.Join(".bench_build", "runs"), "directory for run records and span dumps")
	calibrate := fs.Bool("calibrate", false, "measure serve-mixed's closed-loop capacity (the basis of its fixed open-loop rates) and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds <= 0 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %g, trace %d)\n", *name, *seconds, *traceMode)
		return 2
	}
	if _, err := os.Stat(*sketchd); err != nil {
		fmt.Fprintf(stderr, "perfbench: sketchd binary: %v\n", err)
		return 2
	}
	e := env{seed: *seed, seconds: *seconds, trace: *traceMode == 1, sketchd: *sketchd, out: *out}
	if *calibrate {
		if err := calibrateServe(e, stdout); err != nil {
			fmt.Fprintf(stderr, "perfbench: calibrate: %v\n", err)
			return 1
		}
		return 0
	}
	fp := fingerprint(e)
	fpJSON, _ := json.Marshal(fp) // strings and ints only: cannot fail
	fmt.Fprintf(stdout, "fingerprint %s\n", fpJSON)

	r := newReport()
	if err := wl.run(e, r); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	wanted := endToEnd
	if e.trace {
		wanted = perLayer
	}
	res, all := r.emit(stdout, wl.name, wanted)
	if err := writeRecord(e, wl.name, fp, res, all); err != nil {
		fmt.Fprintf(stderr, "perfbench: write run record: %v\n", err)
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// record is the file a run leaves under -out: its fingerprint, its result
// line and every metric it printed.
type record struct {
	Workload    string            `json:"workload"`
	Trace       bool              `json:"trace"`
	Fingerprint fp                `json:"fingerprint"`
	Result      result            `json:"result"`
	Metrics     map[string]metric `json:"metrics"`
}

func writeRecord(e env, name string, f fp, res result, all map[string]metric) error {
	if err := os.MkdirAll(e.out, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(record{Workload: name, Trace: e.trace, Fingerprint: f, Result: res, Metrics: all}, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(e.out, fmt.Sprintf("run-%s-trace%d-seed%d.json", name, boolInt(e.trace), e.seed))
	return os.WriteFile(path, b, 0o644)
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// spanPath is where a traced run dumps its spans.
func spanPath(e env, name string) string {
	return filepath.Join(e.out, fmt.Sprintf("spans-%s-seed%d.json", name, e.seed))
}

// compareMain prints two run records' metrics side by side, refusing when
// the machines or workloads differ: numbers from different fingerprints
// are not comparable.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare RUN_A.json RUN_B.json")
		return 2
	}
	var recs [2]record
	for i, path := range args {
		b, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 2
		}
		if err := json.Unmarshal(b, &recs[i]); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", path, err)
			return 2
		}
	}
	if why := comparable(recs[0], recs[1]); why != "" {
		fmt.Fprintf(stderr, "perfbench: refusing to compare: %s\n", why)
		return 3
	}
	names := make([]string, 0, len(recs[0].Metrics))
	for k := range recs[0].Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		a := recs[0].Metrics[k]
		b, ok := recs[1].Metrics[k]
		if !ok {
			fmt.Fprintf(stdout, "%-40s %14.6g  (missing)\n", k, a.Value)
			continue
		}
		fmt.Fprintf(stdout, "%-40s %14.6g %14.6g %+8.2f%% %s\n", k, a.Value, b.Value, (b.Value/a.Value-1)*100, a.Unit)
	}
	return 0
}

// comparable explains why two records may not be compared ("" if they
// may): different workloads or modes, or different machine fingerprints.
// The seed and the commit are allowed to differ.
func comparable(a, b record) string {
	if a.Workload != b.Workload || a.Trace != b.Trace {
		return fmt.Sprintf("workload %s/trace=%v vs %s/trace=%v", a.Workload, a.Trace, b.Workload, b.Trace)
	}
	if d := a.Fingerprint.machineDiff(b.Fingerprint); d != "" {
		return "machine fingerprints differ: " + d
	}
	return ""
}
