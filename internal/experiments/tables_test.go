package experiments

import (
	"bytes"
	"strings"
	"testing"

	"cmm/internal/mixes"
)

// syntheticComparison builds a small dataset with known values so the
// table emitters can be checked without running the simulator.
func syntheticComparison() *Comparison {
	mk := func(name string, cat mixes.Category, hs float64) MixResult {
		return MixResult{Mix: name, Category: cat, NormHS: hs, NormWS: hs + 0.01,
			WorstCase: 0.9, NormBW: 0.8, NormStalls: 1.1}
	}
	return &Comparison{
		Policies: []string{"PT", "CMM-a"},
		Mixes: []mixes.Mix{
			{Name: "Pref Fri #1", Category: mixes.PrefFri},
			{Name: "Pref Agg #1", Category: mixes.PrefAgg},
		},
		Results: map[string][]MixResult{
			"PT": {mk("Pref Fri #1", mixes.PrefFri, 0.95),
				mk("Pref Agg #1", mixes.PrefAgg, 1.05)},
			"CMM-a": {mk("Pref Fri #1", mixes.PrefFri, 1.01),
				mk("Pref Agg #1", mixes.PrefAgg, 1.08)},
		},
	}
}

func TestWriteHSWS(t *testing.T) {
	var b bytes.Buffer
	WriteHSWS(&b, syntheticComparison(), "PT", "CMM-a")
	out := b.String()
	for _, want := range []string{"Pref Fri #1", "Pref Agg #1", "0.950", "1.080", "category means"} {
		if !strings.Contains(out, want) {
			t.Errorf("HSWS table missing %q:\n%s", want, out)
		}
	}
}

func TestWriteSingleMetric(t *testing.T) {
	var b bytes.Buffer
	WriteSingleMetric(&b, syntheticComparison(), "worst-case", MetricWorstCase, "PT")
	out := b.String()
	if !strings.Contains(out, "0.900") || !strings.Contains(out, "worst-case") {
		t.Errorf("single-metric table wrong:\n%s", out)
	}
}

func TestCSVFormat(t *testing.T) {
	out := CSV(syntheticComparison())
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 1+4 {
		t.Fatalf("%d CSV lines, want 5:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "mix,category,policy") {
		t.Fatalf("header %q", lines[0])
	}
	if !strings.Contains(out, `"Pref Agg #1","Pref Agg","CMM-a",1.0800`) {
		t.Fatalf("CSV row missing:\n%s", out)
	}
}

func TestCategoryMeans(t *testing.T) {
	c := syntheticComparison()
	means := c.CategoryMeans("PT", MetricHS)
	if got := means[mixes.PrefFri]; got != 0.95 {
		t.Fatalf("PrefFri mean %g", got)
	}
	if got := means[mixes.PrefAgg]; got != 1.05 {
		t.Fatalf("PrefAgg mean %g", got)
	}
}

func TestMetricSelectors(t *testing.T) {
	r := MixResult{NormHS: 1, NormWS: 2, WorstCase: 3, NormBW: 4, NormStalls: 5}
	if MetricHS(r) != 1 || MetricWS(r) != 2 || MetricWorstCase(r) != 3 ||
		MetricBW(r) != 4 || MetricStalls(r) != 5 {
		t.Fatal("metric selectors wrong")
	}
}

func TestWriteFig3EmptyRows(t *testing.T) {
	var b bytes.Buffer
	WriteFig3(&b, nil) // must not panic
	if b.Len() != 0 {
		t.Fatalf("output for empty rows: %q", b.String())
	}
}

func TestClassifyCriteria(t *testing.T) {
	f1 := []Fig1Row{
		{Benchmark: "agg", DemandMBs: 2000, IncreasePct: 80},
		{Benchmark: "lowbw", DemandMBs: 500, IncreasePct: 300},
		{Benchmark: "flat", DemandMBs: 2000, IncreasePct: 10},
	}
	f2 := []Fig2Row{
		{Benchmark: "agg", SpeedupPct: 60},
		{Benchmark: "lowbw", SpeedupPct: 60},
		{Benchmark: "flat", SpeedupPct: 60},
	}
	f3 := []Fig3Row{
		{Benchmark: "agg", Needs80: 2},
		{Benchmark: "lowbw", Needs80: 12},
		{Benchmark: "flat", Needs80: 8},
	}
	got := Classify(f1, f2, f3)
	if c := got["agg"]; !c.PrefAggressive || !c.PrefFriendly || c.LLCSensitive {
		t.Errorf("agg classified %+v", c)
	}
	// Low bandwidth: never aggressive (and thus never friendly), but
	// LLC sensitive by the ways criterion.
	if c := got["lowbw"]; c.PrefAggressive || c.PrefFriendly || !c.LLCSensitive {
		t.Errorf("lowbw classified %+v", c)
	}
	// High bandwidth but small prefetch increase: not aggressive;
	// needs80 == 8 meets the >= 8 sensitivity bar.
	if c := got["flat"]; c.PrefAggressive || !c.LLCSensitive {
		t.Errorf("flat classified %+v", c)
	}
}

func TestWriteMarkdownSummary(t *testing.T) {
	var b bytes.Buffer
	WriteMarkdownSummary(&b, syntheticComparison())
	out := b.String()
	for _, want := range []string{"| Category |", "| Pref Fri |", "0.950",
		"Minimum worst-case", "| PT | 0.900 |"} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown summary missing %q", want)
		}
	}
}

func TestWriteMarkdownCharacterization(t *testing.T) {
	f1 := []Fig1Row{{Benchmark: "x", DemandGBs: 2.5, PrefetchGBs: 4.0, IncreasePct: 60}}
	f2 := []Fig2Row{{Benchmark: "x", SpeedupPct: 55}}
	f3 := []Fig3Row{{Benchmark: "x", Needs80: 2}}
	var b bytes.Buffer
	WriteMarkdownCharacterization(&b, f1, f2, f3)
	if !strings.Contains(b.String(), "| x | 2.50 | 4.00 | 60% | 55% | 2 |") {
		t.Errorf("characterization row wrong:\n%s", b.String())
	}
}

// TestCategoryMeansOutsidePaperCategories: the category-mean rows list the
// categories a comparison ran, in first-appearance order, the extension
// families included, and none it did not run; their header names one
// column per policy.
func TestCategoryMeansOutsidePaperCategories(t *testing.T) {
	mk := func(name string, cat mixes.Category, hs float64) MixResult {
		return MixResult{Mix: name, Category: cat, NormHS: hs, NormWS: hs}
	}
	c := &Comparison{
		Policies: []string{"PT", "CMM-a"},
		Mixes: []mixes.Mix{
			{Name: "Many Core 64c #1", Category: mixes.ManyCore},
			{Name: "BW Sat #1", Category: mixes.BWSat},
			{Name: "Many Core 64c #2", Category: mixes.ManyCore},
		},
		Results: map[string][]MixResult{
			"PT": {mk("Many Core 64c #1", mixes.ManyCore, 1.0), mk("BW Sat #1", mixes.BWSat, 1.5),
				mk("Many Core 64c #2", mixes.ManyCore, 1.2)},
			"CMM-a": {mk("Many Core 64c #1", mixes.ManyCore, 1.1), mk("BW Sat #1", mixes.BWSat, 1.6),
				mk("Many Core 64c #2", mixes.ManyCore, 1.3)},
		},
	}
	var b bytes.Buffer
	WriteSingleMetric(&b, c, "HS", MetricHS, "PT", "CMM-a")
	_, means, ok := strings.Cut(b.String(), "-- category means (HS) --\n")
	if !ok {
		t.Fatalf("no category means:\n%s", b.String())
	}
	want := "category                 PT        CMM-a\n" +
		"Many Core             1.100        1.200\n" +
		"BW Sat                1.500        1.600\n"
	if means != want {
		t.Errorf("category means:\n%s\nwant\n%s", means, want)
	}

	b.Reset()
	WriteMarkdownSummary(&b, c)
	out := b.String()
	if !strings.Contains(out, "| Many Core | 1.100 | 1.200 |\n| BW Sat | 1.500 | 1.600 |\n\n") || strings.Contains(out, "Pref") {
		t.Errorf("markdown summary rows wrong:\n%s", out)
	}
}
