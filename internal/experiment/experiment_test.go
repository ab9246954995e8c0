package experiment

import (
	"strconv"
	"strings"
	"testing"
)

func quickCfg() Config { return Config{Quick: true, Seed: 1} }

func TestRegistryAndLookup(t *testing.T) {
	reg := Registry()
	if len(reg) < 10 {
		t.Fatalf("expected at least 10 experiments, got %d", len(reg))
	}
	seen := make(map[string]bool)
	for _, r := range reg {
		if r.ID == "" || r.Paper == "" || r.Description == "" || r.Run == nil {
			t.Fatalf("incomplete runner %+v", r)
		}
		if seen[r.ID] {
			t.Fatalf("duplicate experiment id %s", r.ID)
		}
		seen[r.ID] = true
		if _, ok := Lookup(r.ID); !ok {
			t.Fatalf("Lookup(%s) failed", r.ID)
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("Lookup of unknown id should fail")
	}
}

func TestFigure1LearningTable(t *testing.T) {
	tbl := Figure1Learning(quickCfg())
	out := tbl.String()
	if !strings.Contains(out, "validated paths + generalisation") {
		t.Fatalf("missing variant:\n%s", out)
	}
	// The validated-paths variant must recover the goal query.
	for _, row := range tbl.Rows {
		if row[0] == "validated paths + generalisation" {
			if row[2] != "yes" || row[3] != "yes" {
				t.Fatalf("validated variant should be consistent and goal-equivalent: %v", row)
			}
		}
		if row[0] == "auto witnesses (no validation)" {
			if row[2] != "yes" {
				t.Fatalf("auto-witness variant must still be consistent: %v", row)
			}
			if row[3] != "no" {
				t.Fatalf("auto-witness variant should not recover the goal on Figure 1: %v", row)
			}
		}
	}
}

func TestInteractiveVsStaticShape(t *testing.T) {
	tbl := InteractiveVsStatic(quickCfg())
	if len(tbl.Rows) == 0 {
		t.Fatal("no rows")
	}
	// The headline shape: interactive needs no more labels than static on
	// every measured size.
	for _, row := range tbl.Rows {
		inter := mustFloat(t, row[2])
		static := mustFloat(t, row[4])
		if inter > static {
			t.Fatalf("interactive (%v) should need no more labels than static (%v): %v", inter, static, row)
		}
	}
}

func TestNeighborhoodGrowthShape(t *testing.T) {
	tbl := NeighborhoodGrowth(quickCfg())
	if len(tbl.Rows) < 8 {
		t.Fatalf("expected rows for 2 graphs x 4 radii, got %d", len(tbl.Rows))
	}
	// Fragment size must be non-decreasing in the radius for each graph.
	var prev float64
	var prevGraph string
	for _, row := range tbl.Rows {
		size := mustFloat(t, row[3])
		if row[0] == prevGraph && size < prev {
			t.Fatalf("fragment size decreased with radius: %v", tbl.Rows)
		}
		prev, prevGraph = size, row[0]
	}
}

func TestPathValidationEffectShape(t *testing.T) {
	tbl := PathValidationEffect(quickCfg())
	if len(tbl.Rows) == 0 {
		t.Fatal("no rows")
	}
	// With validation, answer-set recovery and language equivalence must be
	// at least as frequent as without, aggregated over all goals.
	withSet, withoutSet, withLang, withoutLang := 0, 0, 0, 0
	for _, row := range tbl.Rows {
		withSet += fractionNumerator(t, row[2])
		withoutSet += fractionNumerator(t, row[3])
		withLang += fractionNumerator(t, row[4])
		withoutLang += fractionNumerator(t, row[5])
	}
	if withSet < withoutSet {
		t.Fatalf("path validation should not hurt answer-set recovery: with=%d without=%d", withSet, withoutSet)
	}
	if withLang < withoutLang {
		t.Fatalf("path validation should not hurt language recovery: with=%d without=%d", withLang, withoutLang)
	}
	if withSet == 0 {
		t.Fatal("path validation should recover the goal at least once")
	}
}

func TestInteractionsVsQuerySizeShape(t *testing.T) {
	tbl := InteractionsVsQuerySize(quickCfg())
	if len(tbl.Rows) == 0 {
		t.Fatal("no rows")
	}
	// Each goal appears once per strategy.
	byStrategy := map[string]int{}
	for _, row := range tbl.Rows {
		byStrategy[row[2]]++
	}
	if byStrategy["random"] != byStrategy["informative"] || byStrategy["random"] == 0 {
		t.Fatalf("unbalanced strategies: %v", byStrategy)
	}
}

func TestLearningTimeVsGraphSizeShape(t *testing.T) {
	tbl := LearningTimeVsGraphSize(quickCfg())
	if len(tbl.Rows) < 3 {
		t.Fatalf("expected at least 3 sizes, got %d", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if row[5] != "yes" {
			t.Fatalf("learning must stay consistent at every size: %v", row)
		}
	}
}

func TestStrategyComparisonShape(t *testing.T) {
	tbl := StrategyComparison(quickCfg())
	if len(tbl.Rows) != 4 {
		t.Fatalf("expected 4 strategies, got %d", len(tbl.Rows))
	}
	names := map[string]bool{}
	for _, row := range tbl.Rows {
		names[row[0]] = true
	}
	for _, want := range []string{"random", "informative", "hybrid", "disagreement"} {
		if !names[want] {
			t.Fatalf("missing strategy %s", want)
		}
	}
}

func TestAblations(t *testing.T) {
	if tbl := AblationWitnessOrder(quickCfg()); len(tbl.Rows) != 2 {
		t.Fatalf("witness ablation rows = %d", len(tbl.Rows))
	}
	if tbl := AblationMergeOrder(quickCfg()); len(tbl.Rows) != 2 {
		t.Fatalf("merge ablation rows = %d", len(tbl.Rows))
	}
	if tbl := AblationNeighborhoodRadius(quickCfg()); len(tbl.Rows) != 3 {
		t.Fatalf("radius ablation rows = %d", len(tbl.Rows))
	}
}

// helpers

func mustFloat(t *testing.T, s string) float64 {
	t.Helper()
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cannot parse %q as float: %v", s, err)
	}
	return f
}

func fractionNumerator(t *testing.T, s string) int {
	t.Helper()
	parts := strings.Split(s, "/")
	n, err := strconv.Atoi(parts[0])
	if err != nil {
		t.Fatalf("cannot parse %q: %v", s, err)
	}
	return n
}
