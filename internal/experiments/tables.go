package experiments

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"cmm/internal/mixes"
	"cmm/internal/pmu"
)

// WriteTable1 prints the paper's Table I — the derived PMU metrics — with
// this implementation's event names.
func WriteTable1(w io.Writer) {
	rows := []struct{ no, name, def, desc string }{
		{"M-1", "L2-LLC-traffic", "l2_pref_miss + l2_dm_miss", "demand+prefetch requests between L2 and LLC"},
		{"M-2", "L2 pref miss frac", "l2_pref_miss / M-1", "prefetch fraction of that traffic"},
		{"M-3", "L2 PTR", "l2_pref_miss per second", "L2 prefetch requests arriving at LLC per second"},
		{"M-4", "PGA", "l2_pref_req / l2_dm_req", "ability to generate L2 prefetches"},
		{"M-5", "L2 PMR", "l2_pref_miss / l2_pref_req", "fraction of prefetches missing L2"},
		{"M-6", "L2 PPM", "l2_pref_req / l2_dm_miss", "prefetches issued per demand miss"},
		{"M-7", "LLC PT", "l3_pref_miss * 64", "approx. LLC→memory prefetch traffic (bytes)"},
	}
	fmt.Fprintf(w, "%-5s %-18s %-28s %s\n", "No.", "Metric", "Definition", "Description")
	for _, r := range rows {
		fmt.Fprintf(w, "%-5s %-18s %-28s %s\n", r.no, r.name, r.def, r.desc)
	}
	fmt.Fprintf(w, "\nRaw events: ")
	for e := pmu.Event(0); e < pmu.NumEvents; e++ {
		if e > 0 {
			fmt.Fprint(w, ", ")
		}
		fmt.Fprint(w, e)
	}
	fmt.Fprintln(w)
}

// WriteFig1 prints the bandwidth characterisation.
func WriteFig1(w io.Writer, rows []Fig1Row) {
	fmt.Fprintf(w, "%-16s %12s %14s %10s\n", "benchmark", "demand GB/s", "w/ pref GB/s", "increase")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %12.3f %14.3f %9.1f%%\n", r.Benchmark, r.DemandGBs, r.PrefetchGBs, r.IncreasePct)
	}
}

// WriteFig2 prints the prefetch speedup characterisation.
func WriteFig2(w io.Writer, rows []Fig2Row) {
	fmt.Fprintf(w, "%-16s %9s %9s %9s\n", "benchmark", "IPC on", "IPC off", "speedup")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %9.3f %9.3f %8.1f%%\n", r.Benchmark, r.IPCOn, r.IPCOff, r.SpeedupPct)
	}
}

// WriteFig3 prints the way-sensitivity sweep.
func WriteFig3(w io.Writer, rows []Fig3Row) {
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(w, "%-16s", "benchmark")
	for _, ways := range rows[0].Ways {
		fmt.Fprintf(w, " %6dw", ways)
	}
	fmt.Fprintf(w, "  %s\n", "needs80/needs90")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s", r.Benchmark)
		for _, ipc := range r.IPC {
			fmt.Fprintf(w, " %7.3f", ipc)
		}
		fmt.Fprintf(w, "  %d/%d\n", r.Needs80, r.Needs90)
	}
}

// WriteHSWS prints a Figs. 7/9/11/13-style table: normalized HS and WS per
// mix for the given policies, followed by per-category means.
func WriteHSWS(w io.Writer, c *Comparison, policies ...string) {
	fmt.Fprintf(w, "%-14s", "mix")
	for _, p := range policies {
		fmt.Fprintf(w, " %9s-HS %9s-WS", p, p)
	}
	fmt.Fprintln(w)
	for i, m := range c.Mixes {
		fmt.Fprintf(w, "%-14s", m.Name)
		for _, p := range policies {
			r := c.Results[p][i]
			fmt.Fprintf(w, " %12.3f %12.3f", r.NormHS, r.NormWS)
		}
		fmt.Fprintln(w)
	}
	writeCategoryMeans(w, c, policies, "HS", MetricHS)
	writeCategoryMeans(w, c, policies, "WS", MetricWS)
}

// WriteSingleMetric prints a Figs. 8/10/12/14/15-style table for one
// metric.
func WriteSingleMetric(w io.Writer, c *Comparison, label string, metric func(MixResult) float64, policies ...string) {
	fmt.Fprintf(w, "%-14s", "mix")
	for _, p := range policies {
		fmt.Fprintf(w, " %12s", p)
	}
	fmt.Fprintf(w, "   (%s)\n", label)
	for i, m := range c.Mixes {
		fmt.Fprintf(w, "%-14s", m.Name)
		for _, p := range policies {
			fmt.Fprintf(w, " %12.3f", metric(c.Results[p][i]))
		}
		fmt.Fprintln(w)
	}
	writeCategoryMeans(w, c, policies, label, metric)
}

// writeCategoryMeans prints one row per category of c (see categories)
// and one column per policy.
func writeCategoryMeans(w io.Writer, c *Comparison, policies []string, label string, metric func(MixResult) float64) {
	fmt.Fprintf(w, "-- category means (%s) --\n", label)
	fmt.Fprintf(w, "%-14s", "category")
	means := make([]map[mixes.Category]float64, len(policies))
	for i, p := range policies {
		fmt.Fprintf(w, " %12s", p)
		means[i] = c.CategoryMeans(p, metric)
	}
	fmt.Fprintln(w)
	for _, cat := range c.categories() {
		fmt.Fprintf(w, "%-14s", cat.String())
		for i := range policies {
			fmt.Fprintf(w, " %12.3f", means[i][cat])
		}
		fmt.Fprintln(w)
	}
}

// categories lists the categories of c's mixes in first-appearance order.
func (c *Comparison) categories() []mixes.Category {
	var out []mixes.Category
	for _, m := range c.Mixes {
		if !slices.Contains(out, m.Category) {
			out = append(out, m.Category)
		}
	}
	return out
}

// CSV emits the full comparison dataset as CSV (one row per mix×policy).
func CSV(c *Comparison) string {
	var b strings.Builder
	b.WriteString("mix,category,policy,norm_hs,norm_ws,worst_case,norm_bw,norm_stalls,worst_benchmark\n")
	for _, p := range c.Policies {
		for _, r := range c.Results[p] {
			fmt.Fprintf(&b, "%q,%q,%q,%.4f,%.4f,%.4f,%.4f,%.4f,%q\n",
				r.Mix, r.Category.String(), p, r.NormHS, r.NormWS, r.WorstCase, r.NormBW, r.NormStalls, r.WorstBenchmark)
		}
	}
	return b.String()
}
