package mixes

import (
	"fmt"
	"reflect"
	"testing"

	"cmm/internal/workload"
)

func TestClassesCoverSuite(t *testing.T) {
	classes := Classes()
	for _, name := range workload.Names() {
		if _, ok := classes[name]; !ok {
			t.Errorf("benchmark %s missing from class table", name)
		}
	}
	for name := range classes {
		if _, ok := workload.ByName(name); !ok {
			t.Errorf("class table names unknown benchmark %s", name)
		}
	}
}

func TestClassInvariants(t *testing.T) {
	for name, c := range Classes() {
		if c.PrefFriendly && !c.PrefAggressive {
			t.Errorf("%s: friendly implies aggressive in the paper's convention", name)
		}
	}
}

func TestPoolsSufficient(t *testing.T) {
	p, err := buildPools()
	if err != nil {
		t.Fatal(err)
	}
	if len(p.friendly) < 4 {
		t.Errorf("friendly pool %d < 4", len(p.friendly))
	}
	if len(p.unfriendly) < 4 {
		t.Errorf("unfriendly pool %d < 4", len(p.unfriendly))
	}
	if len(p.nonAggSensitive) < 2 {
		t.Errorf("sensitive pool %d < 2", len(p.nonAggSensitive))
	}
}

func TestBuildCategoriesComposition(t *testing.T) {
	classes := Classes()
	count := func(m Mix, pred func(Class) bool) int {
		n := 0
		for _, s := range m.Specs {
			if pred(classes[s.Name]) {
				n++
			}
		}
		return n
	}
	isFriendly := func(c Class) bool { return c.PrefAggressive && c.PrefFriendly }
	isUnfriendly := func(c Class) bool { return c.PrefAggressive && !c.PrefFriendly }
	isSensitive := func(c Class) bool { return c.LLCSensitive }

	for seed := int64(0); seed < 5; seed++ {
		m, err := Build(PrefFri, 8, seed)
		if err != nil {
			t.Fatal(err)
		}
		if len(m.Specs) != 8 {
			t.Fatalf("mix size %d", len(m.Specs))
		}
		if got := count(m, isFriendly); got != 4 {
			t.Errorf("PrefFri seed %d: %d friendly, want 4", seed, got)
		}
		if got := count(m, isUnfriendly); got != 0 {
			t.Errorf("PrefFri seed %d: %d unfriendly, want 0", seed, got)
		}
		if got := count(m, isSensitive); got < 2 {
			t.Errorf("PrefFri seed %d: %d LLC-sensitive, want >= 2", seed, got)
		}

		m, _ = Build(PrefAgg, 8, seed)
		if got := count(m, isFriendly); got != 2 {
			t.Errorf("PrefAgg seed %d: %d friendly, want 2", seed, got)
		}
		if got := count(m, isUnfriendly); got != 2 {
			t.Errorf("PrefAgg seed %d: %d unfriendly, want 2", seed, got)
		}

		m, _ = Build(PrefUnfri, 8, seed)
		if got := count(m, isUnfriendly); got != 4 {
			t.Errorf("PrefUnfri seed %d: %d unfriendly, want 4", seed, got)
		}

		m, _ = Build(PrefNoAgg, 8, seed)
		if got := count(m, isFriendly) + count(m, isUnfriendly); got != 0 {
			t.Errorf("PrefNoAgg seed %d: %d aggressive, want 0", seed, got)
		}
	}
}

func TestBuildDeterministic(t *testing.T) {
	a, err := Build(PrefAgg, 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Build(PrefAgg, 8, 42)
	for i := range a.Specs {
		if a.Specs[i].Name != b.Specs[i].Name {
			t.Fatalf("same seed produced different mixes at core %d", i)
		}
	}
	c, _ := Build(PrefAgg, 8, 43)
	same := true
	for i := range a.Specs {
		if a.Specs[i].Name != c.Specs[i].Name {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical mixes")
	}
}

func TestBuildRejectsTinyMachine(t *testing.T) {
	if _, err := Build(PrefFri, 2, 1); err == nil {
		t.Fatal("2-core mix accepted")
	}
}

func TestAllProducesFortyOrderedMixes(t *testing.T) {
	all, err := All(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 40 {
		t.Fatalf("%d mixes, want 40", len(all))
	}
	// Paper's presentation order: first 10 Pref Fri, then Pref Agg, ...
	for i, m := range all {
		want := Category(i / 10)
		if m.Category != want {
			t.Fatalf("mix %d category %v, want %v", i, m.Category, want)
		}
		if m.Name == "" {
			t.Fatalf("mix %d unnamed", i)
		}
	}
}

// TestBandwidthSaturatedFamily pins the CBP evaluation family: loud cores
// everywhere except two LLC-sensitive victims, All() untouched by it.
func TestBandwidthSaturatedFamily(t *testing.T) {
	classes := Classes()
	fam, err := BWSaturated(8, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(fam) != 4 {
		t.Fatalf("%d mixes, want 4", len(fam))
	}
	for _, m := range fam {
		if m.Category != BWSat {
			t.Fatalf("%s: category %v", m.Name, m.Category)
		}
		var unfri, fri, sens int
		for _, s := range m.Specs {
			cl := classes[s.Name]
			switch {
			case cl.PrefAggressive && cl.PrefFriendly:
				fri++
			case cl.PrefAggressive:
				unfri++
			case cl.LLCSensitive:
				sens++
			}
		}
		if unfri != 3 || fri != 3 || sens != 2 {
			t.Errorf("%s: composition unfriendly=%d friendly=%d sensitive=%d, want 3/3/2",
				m.Name, unfri, fri, sens)
		}
	}
	if fam[0].Name != "BW Sat #1" {
		t.Errorf("name %q", fam[0].Name)
	}
	// The extension category must never leak into the paper's selection.
	all, err := All(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range all {
		if m.Category >= NumCategories {
			t.Fatalf("All() produced extension mix %s", m.Name)
		}
	}
}

func TestCategoryString(t *testing.T) {
	for c := Category(0); c < NumCategories; c++ {
		if c.String() == "" {
			t.Errorf("category %d unnamed", c)
		}
	}
	if Category(99).String() == "" {
		t.Error("unknown category must stringify")
	}
}

func TestBenchmarkNames(t *testing.T) {
	m, err := Build(PrefFri, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	names := m.BenchmarkNames()
	if len(names) != 8 {
		t.Fatalf("%d names", len(names))
	}
	for i, n := range names {
		if n != m.Specs[i].Name {
			t.Fatalf("name %d mismatch", i)
		}
	}
}

func TestSmallerMachines(t *testing.T) {
	// The harness supports 4-core machines for quick runs.
	for c := Category(0); c < NumCategories; c++ {
		m, err := Build(c, 4, 9)
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		if len(m.Specs) != 4 {
			t.Fatalf("%v: %d specs", c, len(m.Specs))
		}
	}
}

// TestSelectionMatchesFilteredSet checks Selection against the definition
// it replaces: build every mix of the paper's set one Build at a time,
// then keep the first perCategory of each category.
func TestSelectionMatchesFilteredSet(t *testing.T) {
	for _, cores := range []int{8, 64} {
		var full []Mix
		for c := Category(0); c < NumCategories; c++ {
			for i := 0; i < MixesPerCategory; i++ {
				m, err := Build(c, cores, 5+int64(c)*1000+int64(i))
				if err != nil {
					t.Fatal(err)
				}
				m.Name = fmt.Sprintf("%s #%d", c, i+1)
				full = append(full, m)
			}
		}
		for _, per := range []int{1, 3, 10} {
			var want []Mix
			for c := Category(0); c < NumCategories; c++ {
				kept := 0
				for _, m := range full {
					if m.Category == c && kept < per {
						want = append(want, m)
						kept++
					}
				}
			}
			got, err := Selection(cores, 5, per)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%d cores, %d per category: Selection differs from the filtered set", cores, per)
			}
		}
	}
}
