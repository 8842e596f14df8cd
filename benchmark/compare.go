package main

import (
	"fmt"
	"io"
	"text/tabwriter"
)

// verdict of one workload × end-to-end metric pairing.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
	verdictInvalid    = "invalid"
)

// compareMetric judges new against base for one metric: worse when it
// lost more than the bound, unresolved when either side's own window
// spread is wider than the bound (the run cannot tell a change that
// small from its noise), ok otherwise.
func compareMetric(d metricDef, base, new metricValue) (ratio float64, verdict string) {
	ratio = new.Value / base.Value
	lost := ratio - 1
	if d.Better == "higher" {
		lost = 1 - ratio
	}
	switch {
	case base.Spread > d.Bound || new.Spread > d.Bound:
		return ratio, verdictUnresolved
	case lost > d.Bound:
		return ratio, verdictWorse
	default:
		return ratio, verdictOK
	}
}

// errWorse is what -compare exits non-zero with.
type errWorse int

func (e errWorse) Error() string {
	return fmt.Sprintf("%d metrics got worse by more than their bound", int(e))
}

// compareFiles prints, per workload and end-to-end metric, base, new,
// their ratio, the bound and the verdict, and fails on any "worse".
func compareFiles(w io.Writer, basePath, newPath string) error {
	base, err := readResults(basePath)
	if err != nil {
		return err
	}
	next, err := readResults(newPath)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tunit\tbase\tnew\tnew/base\tbound\tverdict\n")
	worse := 0
	for _, bw := range base.Workloads {
		nw := next.workload(bw.Name)
		if nw == nil {
			return fmt.Errorf("%s has no workload %s", newPath, bw.Name)
		}
		for _, d := range endToEndDefs {
			b, n := bw.EndToEnd[d.Name], nw.EndToEnd[d.Name]
			ratio, verdict := compareMetric(d, b, n)
			if !bw.Valid || !nw.Valid {
				verdict = verdictInvalid
			}
			if verdict == verdictWorse {
				worse++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%.3f of %.6g\t%.2f\t%s\n",
				bw.Name, d.Name, d.Unit, b.Value, n.Value, ratio, b.Value, d.Bound, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if worse > 0 {
		return errWorse(worse)
	}
	return nil
}
