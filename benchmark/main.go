// Command benchmark is the repository's one serving benchmark: it builds
// the stack cmd/ltr-server builds, serves it on loopback, drives it over
// HTTP from op streams it generates from -seed, checks every answer it
// can, and reports end-to-end metrics (untraced phase) and per-layer
// metrics (traced pass, stage replay, probes). See README.md.
//
//	go run ./benchmark -seed 1 -out results.json            # every workload
//	go run ./benchmark -seed 1 -trace 1 -trace-out t.json   # plus layers and spans
//	go run ./benchmark -compare base.json new.json          # before/after table
//	go run ./benchmark -workload hot_read -seed 3 -seconds 12 -trace 0
//
// The last form is what BENCHMARK.json's command runs: one workload, and
// one JSON object on the last line of standard output.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"text/tabwriter"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

func main() {
	var (
		name     = flag.String("workload", "", "run one workload and end standard output with its one-line JSON result (default: run all and print tables)")
		seed     = flag.Int64("seed", 1, "the only source of randomness: corpora and op streams are functions of it")
		seconds  = flag.Float64("seconds", defaultSeconds, "length of the measured phase")
		trace    = flag.Int("trace", 0, "1 adds the traced pass, the stage replay and the layer probes, and reports per-layer metrics")
		out      = flag.String("out", "", "write the full results document here")
		traceOut = flag.String("trace-out", "", "write the traced pass's spans here (needs -trace 1)")
		compare  = flag.Bool("compare", false, "compare two results documents: -compare base.json new.json")
	)
	flag.Parse()
	if err := mainErr(*name, *seed, *seconds, *trace, *out, *traceOut, *compare, flag.Args()); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
}

func mainErr(name string, seed int64, seconds float64, trace int, out, traceOut string, compare bool, args []string) error {
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two results files")
		}
		return compareFiles(os.Stdout, args[0], args[1])
	}
	if len(args) > 0 {
		return fmt.Errorf("unexpected arguments %q", args)
	}
	if seconds <= 0 || (trace != 0 && trace != 1) {
		return fmt.Errorf("-seconds must be positive and -trace 0 or 1")
	}
	if traceOut != "" && trace == 0 {
		return fmt.Errorf("-trace-out needs -trace 1")
	}
	opts := runOptions{
		seed:    seed,
		seconds: time.Duration(seconds * float64(time.Second)),
		trace:   trace == 1,
		setups:  3,
	}
	todo := workloads
	logw = os.Stdout
	if name != "" {
		logw = os.Stderr // standard output ends with the result line
		wl, ok := workloadByName(name)
		if !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		todo = []workload{*wl}
		if opts.trace {
			opts.setups = 1 // setup_s is an end-to-end metric; this run prints the layers
		}
	}
	doc := &results{Seed: seed, Seconds: seconds, GoMaxProc: runtime.GOMAXPROCS(0)}
	spans := make(map[string][]span)
	for i := range todo {
		res, err := runWorkload(&todo[i], opts)
		if err != nil {
			return err
		}
		doc.Workloads = append(doc.Workloads, res)
		spans[res.Name] = res.spans
		printWorkload(res)
	}
	if out != "" {
		if err := writeJSONFile(out, doc); err != nil {
			return err
		}
	}
	if traceOut != "" {
		if err := writeTrace(traceOut, spans); err != nil {
			return err
		}
	}
	if name != "" {
		line, err := contractLine(doc.Workloads[0], opts.trace)
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", line)
		return nil
	}
	for _, w := range doc.Workloads {
		if _, failed := w.attempted(); failed > 0 {
			return fmt.Errorf("%s: %d operations failed", w.Name, failed)
		}
	}
	return nil
}

// printWorkload writes one workload's counts and every metric by name
// and unit to the log.
func printWorkload(w *workloadResult) {
	fmt.Fprintf(logw, "%s  seed %d  %.0f s phase\n", w.Name, w.Seed, w.Seconds)
	parts := make([]string, 0, len(w.Counts))
	for p := range w.Counts {
		parts = append(parts, p)
	}
	sort.Strings(parts)
	for _, p := range parts {
		c := w.Counts[p]
		fmt.Fprintf(logw, "  %-13s sent %d  succeeded %d  failed %d\n", p, c.Sent, c.Succeeded, c.Failed)
	}
	for _, why := range w.Invalid {
		fmt.Fprintf(logw, "  INVALID: %s\n", why)
	}
	tw := tabwriter.NewWriter(logw, 2, 8, 2, ' ', 0)
	for _, d := range endToEndDefs {
		m := w.EndToEnd[d.Name]
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\tn=%d\twindow spread %.3f\n", d.Name, m.Value, m.Unit, m.Samples, m.Spread)
	}
	if w.PerLayer != nil {
		for _, d := range perLayerDefs {
			m := w.PerLayer[d.Name]
			fmt.Fprintf(tw, "  %s\t%.6g\t%s\t\t\n", d.Name, m.Value, m.Unit)
		}
	}
	tw.Flush()
}
