package experiments

import (
	"fmt"
	"io"
)

// WriteMarkdownSummary emits the category-mean summary of a comparison as
// GitHub-flavoured markdown tables — the format EXPERIMENTS.md records.
func WriteMarkdownSummary(w io.Writer, c *Comparison) {
	sections := []struct {
		title  string
		metric func(MixResult) float64
	}{
		{"Normalized HS (category means)", MetricHS},
		{"Normalized WS (category means)", MetricWS},
		{"Worst-case per-app speedup (category means)", MetricWorstCase},
		{"Normalized memory bandwidth (category means)", MetricBW},
		{"Normalized STALLS_L2_PENDING (category means)", MetricStalls},
	}
	for _, sec := range sections {
		fmt.Fprintf(w, "**%s**\n\n", sec.title)
		fmt.Fprint(w, "| Category |")
		for _, p := range c.Policies {
			fmt.Fprintf(w, " %s |", p)
		}
		fmt.Fprint(w, "\n|---|")
		for range c.Policies {
			fmt.Fprint(w, "---|")
		}
		fmt.Fprintln(w)
		for _, cat := range c.categories() {
			fmt.Fprintf(w, "| %s |", cat)
			for _, p := range c.Policies {
				fmt.Fprintf(w, " %.3f |", c.CategoryMeans(p, sec.metric)[cat])
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w)
	}

	// Worst-of-the-worst per policy (Figs. 8/10/12 headline).
	fmt.Fprint(w, "**Minimum worst-case speedup across all mixes**\n\n| Policy | min worst-case |\n|---|---|\n")
	for _, p := range c.Policies {
		worst := 1.0
		for _, r := range c.Results[p] {
			if r.WorstCase < worst {
				worst = r.WorstCase
			}
		}
		fmt.Fprintf(w, "| %s | %.3f |\n", p, worst)
	}
	fmt.Fprintln(w)
}

// WriteTelemetry prints the per-policy controller telemetry attached to a
// comparison: epochs run, detections, throttle flips, partition changes,
// sampling intervals, and the profiling share of machine time — the
// figure-run analogue of the paper's <0.1% kernel-module overhead
// measurement. Policies print in presentation order, baseline first.
func WriteTelemetry(w io.Writer, c *Comparison) {
	if len(c.Telemetry) == 0 {
		return
	}
	fmt.Fprintln(w, "Controller telemetry (per policy, all runs, warm+measured epochs):")
	// The predict/fallback columns only appear when a learned policy ran,
	// so the classic figure tables keep their familiar shape.
	learned := false
	for _, ts := range c.Telemetry {
		if ts.Predictions > 0 || ts.LearnFallbacks > 0 {
			learned = true
			break
		}
	}
	fmt.Fprintf(w, "%-10s %6s %7s %7s %6s %6s %8s %9s",
		"policy", "runs", "epochs", "detect", "flips", "parts", "combos", "overhead")
	if learned {
		fmt.Fprintf(w, " %8s %9s", "predict", "fallback")
	}
	fmt.Fprintln(w)
	for _, p := range append([]string{"baseline"}, c.Policies...) {
		ts, ok := c.Telemetry[p]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%-10s %6d %7d %7d %6d %6d %8d %8.2f%%",
			p, ts.Runs, ts.Epochs, ts.Detections, ts.ThrottleFlips,
			ts.PartitionChanges, ts.SampledCombos, ts.OverheadFraction*100)
		if learned {
			fmt.Fprintf(w, " %8d %9d", ts.Predictions, ts.LearnFallbacks)
		}
		fmt.Fprintln(w)
	}
}

// WriteMarkdownCharacterization emits Fig. 1–3 summaries as markdown.
func WriteMarkdownCharacterization(w io.Writer, f1 []Fig1Row, f2 []Fig2Row, f3 []Fig3Row) {
	speedup := map[string]float64{}
	for _, r := range f2 {
		speedup[r.Benchmark] = r.SpeedupPct
	}
	needs := map[string]int{}
	for _, r := range f3 {
		needs[r.Benchmark] = r.Needs80
	}
	fmt.Fprint(w, "| Benchmark | demand GB/s | +prefetch GB/s | BW increase | IPC speedup | ways for 80% |\n")
	fmt.Fprint(w, "|---|---|---|---|---|---|\n")
	for _, r := range f1 {
		fmt.Fprintf(w, "| %s | %.2f | %.2f | %.0f%% | %.0f%% | %d |\n",
			r.Benchmark, r.DemandGBs, r.PrefetchGBs, r.IncreasePct,
			speedup[r.Benchmark], needs[r.Benchmark])
	}
	fmt.Fprintln(w)
}
