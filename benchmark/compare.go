package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// quartiles returns the first quartile, median and third quartile of v by
// the method of Python's statistics.quantiles(v, n=4) (exclusive), which is
// what the pipeline uses for the spread.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// verdict compares metric d of the change against the base and returns how
// much worse the change's median is (a share of the base's median, or the
// difference itself for an absolute metric; negative when it is better), the
// base's own spread (Q3−Q1, in the same terms) and
//
//	worse       the change is worse by more than the bound and by more than
//	            the base's runs differ among themselves
//	unresolved  it is not, but the base's runs spread wider than the bound,
//	            so these runs cannot tell a regression of that size from noise
//	ok          neither
func verdict(d metricDef, base, change []float64) (worsening, spread float64, v string) {
	q1, bm, q3 := quartiles(base)
	_, cm, _ := quartiles(change)
	worsening, spread = cm-bm, q3-q1
	if d.Higher {
		worsening = bm - cm
	}
	if !d.Abs {
		if bm == 0 {
			return 0, 0, "unresolved"
		}
		worsening, spread = worsening/bm, spread/bm
	}
	switch {
	case worsening > max(d.Bound, spread):
		return worsening, spread, "worse"
	case spread > d.Bound:
		return worsening, spread, "unresolved"
	}
	return worsening, spread, "ok"
}

func readRuns(path string) (map[string]map[string][]float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var runs []runRecord
	if err := json.Unmarshal(b, &runs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]map[string][]float64{}
	for _, r := range runs {
		if r.Trace {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out, nil
}

// compareFiles prints one row per (workload, user metric) the untraced runs
// in two -out files both have — base median, change median, their ratio
// (change over base), how much worse the change is, the base's spread, the
// metric's bound (these three as shares of the base's median, or absolute
// for the two shares) and the verdict — and reports whether any row is
// worse.
func compareFiles(w io.Writer, basePath, changePath string) (bool, error) {
	base, err := readRuns(basePath)
	if err != nil {
		return false, err
	}
	change, err := readRuns(changePath)
	if err != nil {
		return false, err
	}
	anyWorse := false
	fmt.Fprintf(w, "%-8s %-28s %12s %12s %8s %8s %8s %6s  %s\n", "workload", "metric", "base", "change", "ratio", "worse by", "spread", "bound", "verdict")
	for _, wl := range workloadNames {
		for _, d := range userMetrics {
			b, c := base[wl][d.Name], change[wl][d.Name]
			if len(b) == 0 || len(c) == 0 {
				continue
			}
			worsening, spread, v := verdict(d, b, c)
			_, bm, _ := quartiles(b)
			_, cm, _ := quartiles(c)
			ratio := "-"
			if bm != 0 {
				ratio = fmt.Sprintf("%.4f", cm/bm)
			}
			bound := fmt.Sprintf("%.2f", d.Bound)
			if d.Abs {
				bound = fmt.Sprintf("+%g", d.Bound)
			}
			fmt.Fprintf(w, "%-8s %-28s %12.6g %12.6g %8s %+8.4f %8.4f %6s  %s (n=%d/%d)\n", wl, d.Name, bm, cm, ratio, worsening, spread, bound, v, len(b), len(c))
			anyWorse = anyWorse || v == "worse"
		}
	}
	return anyWorse, nil
}
