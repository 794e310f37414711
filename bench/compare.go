package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// Verdicts of a parent-versus-change comparison.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnchanged  = "unchanged"
	verdictUnresolved = "unresolved"
)

// verdict judges one end-to-end metric from each side's per-run values. A
// change is worse (or better) when its median moved past the metric's bound
// in that direction. When either side's spread is wider than the bound the
// runs cannot tell, and the verdict is unresolved, unless every run of one
// side beats every run of the other.
func verdict(d metricDef, parent, change []float64) string {
	pm, cm := median(parent), median(change)
	if pm == 0 {
		return verdictUnresolved
	}
	worse := (cm - pm) / math.Abs(pm)
	if d.Better == higher {
		worse = -worse
	}
	separated := beats(d, change, parent) || beats(d, parent, change)
	switch {
	case math.Max(spread(parent), spread(change)) > d.Bound && !separated:
		return verdictUnresolved
	case worse > d.Bound:
		return verdictWorse
	case worse < -d.Bound:
		return verdictBetter
	}
	return verdictUnchanged
}

// beats reports whether every value in a is better than every value in b.
func beats(d metricDef, a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	for _, x := range a {
		for _, y := range b {
			if (d.Better == lower && x >= y) || (d.Better == higher && x <= y) {
				return false
			}
		}
	}
	return true
}

// workloadRuns returns a report's runs of one workload.
func workloadRuns(rep *fileReport, name string) []*workloadReport {
	var out []*workloadReport
	for _, run := range rep.Runs {
		for _, w := range run {
			if w.Workload == name {
				out = append(out, w)
			}
		}
	}
	return out
}

func metricValues(runs []*workloadReport, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func errorCounts(runs []*workloadReport) (failed, attempted int) {
	for _, r := range runs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return failed, attempted
}

// modelChanges lists the model counters and digest that differ between the
// two sides' first runs.
func modelChanges(parent, change *workloadReport) []string {
	var diff []string
	keys := map[string]bool{}
	for k := range parent.Model {
		keys[k] = true
	}
	for k := range change.Model {
		keys[k] = true
	}
	for _, k := range sortedKeys(keys) {
		p, pok := parent.Model[k]
		c, cok := change.Model[k]
		if pok != cok || p != c {
			diff = append(diff, k)
		}
	}
	if parent.Digest != change.Digest {
		diff = append(diff, "digest")
	}
	return diff
}

func loadReport(path string) (*fileReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := &fileReport{}
	if err := json.Unmarshal(data, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// compareFiles compares two -json reports and prints one row per workload
// and metric. It reports a regression when any metric is worse or a
// workload's error rate rose.
func compareFiles(parentPath, changePath string, w io.Writer) (bool, error) {
	parent, err := loadReport(parentPath)
	if err != nil {
		return false, err
	}
	change, err := loadReport(changePath)
	if err != nil {
		return false, err
	}
	return compareReports(parent, change, w), nil
}

func compareReports(parent, change *fileReport, w io.Writer) bool {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent median [q1, q3]\tchange median [q1, q3]\tdelta\tverdict")
	if parent.Seed != change.Seed {
		fmt.Fprintf(tw, "note: seeds differ (%d vs %d), model counters not compared\n", parent.Seed, change.Seed)
	}
	regressed := false
	names := map[string]bool{}
	for _, run := range parent.Runs {
		for _, r := range run {
			names[r.Workload] = true
		}
	}
	var order []string
	for _, wl := range workloads {
		if names[wl.name] {
			order = append(order, wl.name)
		}
	}
	for _, name := range order {
		pr, cr := workloadRuns(parent, name), workloadRuns(change, name)
		if len(cr) == 0 {
			fmt.Fprintf(tw, "%s\t(all)\t\t(missing)\t\tunresolved\n", name)
			continue
		}
		for _, d := range endToEnd {
			if !d.appliesTo(name) {
				continue
			}
			pv, cv := metricValues(pr, d.Name), metricValues(cr, d.Name)
			if len(pv) == 0 || len(cv) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t\tunresolved\n", name, d.Name, describe(pv), describe(cv))
				continue
			}
			v := verdict(d, pv, cv)
			if v == verdictWorse {
				regressed = true
			}
			delta := (median(cv) - median(pv)) / math.Abs(median(pv))
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%+.1f%%\t%s\n", name, d.Name, describe(pv), describe(cv), 100*delta, v)
		}
		pf, pa := errorCounts(pr)
		cf, ca := errorCounts(cr)
		v := verdictUnchanged
		if float64(cf)*float64(pa) > float64(pf)*float64(ca) {
			v, regressed = verdictWorse, true
		} else if float64(cf)*float64(pa) < float64(pf)*float64(ca) {
			v = verdictBetter
		}
		fmt.Fprintf(tw, "%s\terror_rate\t%d/%d\t%d/%d\t\t%s\n", name, pf, pa, cf, ca, v)
		if parent.Seed == change.Seed && (len(pr[0].Model) > 0 || pr[0].Digest != "") {
			if diff := modelChanges(pr[0], cr[0]); len(diff) > 0 {
				fmt.Fprintf(tw, "%s\tmodel\t\t\t\tmodel changed: %v\n", name, diff)
			} else {
				fmt.Fprintf(tw, "%s\tmodel\t\t\t\tidentical\n", name)
			}
		}
	}
	tw.Flush()
	return regressed
}

// describe renders one side's values as median [q1, q3] with the run count.
func describe(vs []float64) string {
	if len(vs) == 0 {
		return "(missing)"
	}
	q1, q3 := quartiles(vs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", median(vs), q1, q3, len(vs))
}
