package exp

import (
	"reflect"
	"regexp"
	"testing"
)

// TestCatalogIDsAreUniqueAndResolve: every id is a distinct lower-case
// word that Lookup returns its own entry for, an alias resolves to the
// experiment it names, and nothing else resolves.
func TestCatalogIDsAreUniqueAndResolve(t *testing.T) {
	word := regexp.MustCompile(`^[a-z][a-z0-9]*$`)
	seen := map[string]bool{}
	for _, e := range Catalog() {
		if !word.MatchString(e.ID) || e.ID == "all" || seen[e.ID] || e.Desc == "" || e.Run == nil {
			t.Errorf("bad or repeated catalog entry %q (%q)", e.ID, e.Desc)
		}
		seen[e.ID] = true
		if got, ok := Lookup(e.ID); !ok || got.ID != e.ID || got.Desc != e.Desc {
			t.Errorf("Lookup(%q) = %q, %v", e.ID, got.ID, ok)
		}
	}
	if e, ok := Lookup("scalability"); !ok || e.ID != "fig10" {
		t.Errorf("Lookup(scalability) = %q, %v, want fig10", e.ID, ok)
	}
	for _, id := range []string{"", "all", "fig5", "FIG3"} {
		if _, ok := Lookup(id); ok {
			t.Errorf("Lookup(%q) resolved", id)
		}
	}
}

// TestCatalogRunsEveryExperiment runs each entry at a tiny size: every
// one yields tables with rows (one per model for the per-model figures),
// and the fixed measurements equal their own functions' tables.
func TestCatalogRunsEveryExperiment(t *testing.T) {
	o := Options{TrainSamples: 64, ValSamples: 32, Epochs: 1, NumSoCs: 8, Groups: 2, Seed: 1}
	want := map[string]*Table{"fig3": ExpFig3(), "fig4a": ExpFig4a(), "fig4b": ExpFig4b()}
	for _, e := range Catalog() {
		tables, err := e.Run(o, false)
		if err != nil {
			t.Errorf("%s: %v", e.ID, err)
			continue
		}
		n := 1
		if e.ID == "fig6" || e.ID == "fig12" || e.ID == "fig13" {
			n = 2
		}
		if len(tables) != n {
			t.Errorf("%s: %d tables, want %d", e.ID, len(tables), n)
		}
		for _, tb := range tables {
			if len(tb.Rows) == 0 {
				t.Errorf("%s: table %q has no rows", e.ID, tb.Title)
			}
		}
		if w, ok := want[e.ID]; ok && !reflect.DeepEqual(tables, []*Table{w}) {
			t.Errorf("%s: catalog table differs from its function's", e.ID)
		}
	}
}
