package analysis

import (
	"slices"
	"strings"
	"testing"
)

func TestDeterminismFixture(t *testing.T)    { runFixture(t, "determinism", "determinism") }
func TestHotAllocFixture(t *testing.T)       { runFixture(t, "hotalloc", "hotalloc") }
func TestCtxFlowFixture(t *testing.T)        { runFixture(t, "ctxflow", "ctxflow") }
func TestPoolDisciplineFixture(t *testing.T) { runFixture(t, "pooldiscipline", "pooldiscipline") }
func TestFingerprintFixture(t *testing.T)    { runFixture(t, "fingerprint", "fingerprint") }

// TestLoadRepo proves the export-data loader type-checks the whole module
// offline — the property everything above depends on.
func TestLoadRepo(t *testing.T) {
	pkgs, err := LoadPackages("../..", "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("expected the full package set, got %d packages", len(pkgs))
	}
	for _, pkg := range pkgs {
		if pkg.Types == nil || pkg.Info == nil {
			t.Errorf("%s: missing type information", pkg.ImportPath)
		}
	}
}

// TestPlannerReadsNoClock holds the planners to a plan being a pure
// function of its task, topology, options and seed: schedule and
// resharding carry no determinism finding and no exemption from one. Their
// only annotations are hotpath and allows of other analyzers; an unknown
// directive (such as the retired determinism sugar) is flagged too.
func TestPlannerReadsNoClock(t *testing.T) {
	pkgs, err := LoadPackages("../..", "./internal/schedule", "./internal/resharding")
	if err != nil {
		t.Fatalf("loading planners: %v", err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("expected schedule and resharding, got %d packages", len(pkgs))
	}
	for _, pkg := range pkgs {
		diags, err := RunAnalyzers(pkg, []*Analyzer{Determinism})
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			t.Errorf("%s: %s", pkg.Fset.Position(d.Pos), d.Message)
		}
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(strings.TrimSpace(strings.TrimPrefix(c.Text, "//")), annotationPrefix) {
						continue
					}
					allowed, hot := parseAnnotation(c.Text)
					if !hot && (len(allowed) == 0 || slices.Contains(allowed, "determinism")) {
						t.Errorf("%s: determinism exemption or unknown directive %q", pkg.Fset.Position(c.Pos()), c.Text)
					}
				}
			}
		}
	}
}

func TestByName(t *testing.T) {
	for _, a := range All() {
		if ByName(a.Name) != a {
			t.Errorf("ByName(%q) did not round-trip", a.Name)
		}
	}
	if ByName("nope") != nil {
		t.Error("ByName of unknown analyzer should be nil")
	}
}

func TestParseAnnotation(t *testing.T) {
	cases := []struct {
		in      string
		allowed []string
		hot     bool
	}{
		{"//alpacomm:hotpath", nil, true},
		{"//alpacomm:allow determinism budget mode", []string{"determinism"}, false},
		{"//alpacomm:allow hotalloc cold branch", []string{"hotalloc"}, false},
		{"//alpacomm:allow hotalloc,ctxflow shim", []string{"hotalloc", "ctxflow"}, false},
		{"// ordinary comment", nil, false},
		{"//alpacomm:future-directive x", nil, false},
	}
	for _, c := range cases {
		allowed, hot := parseAnnotation(c.in)
		if hot != c.hot || len(allowed) != len(c.allowed) {
			t.Errorf("parseAnnotation(%q) = %v, %v; want %v, %v", c.in, allowed, hot, c.allowed, c.hot)
			continue
		}
		for i := range allowed {
			if allowed[i] != c.allowed[i] {
				t.Errorf("parseAnnotation(%q) allowed[%d] = %q, want %q", c.in, i, allowed[i], c.allowed[i])
			}
		}
	}
}
