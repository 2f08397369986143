package mesh

import (
	"strings"
	"testing"
)

func TestDefaultRegistryPresets(t *testing.T) {
	reg := DefaultRegistry()
	names := reg.Names()
	for _, want := range []string{"p3", "dgx", "dgx-a100", "mixed"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("preset %q missing from %v", want, names)
		}
	}

	p3, err := reg.Build("p3", TopologyParams{Hosts: 3})
	if err != nil {
		t.Fatal(err)
	}
	if p3.HostCount() != 3 || p3.NumDevices() != 12 {
		t.Errorf("p3: %d hosts, %d devices", p3.HostCount(), p3.NumDevices())
	}

	// Defaults apply when Hosts is zero; names are case-insensitive.
	dgx, err := reg.Build("DGX-A100", TopologyParams{})
	if err != nil {
		t.Fatal(err)
	}
	if dgx.HostCount() != 2 || dgx.NumDevices() != 16 {
		t.Errorf("dgx default: %d hosts, %d devices", dgx.HostCount(), dgx.NumDevices())
	}
	alias, err := reg.Build("dgx", TopologyParams{})
	if err != nil {
		t.Fatal(err)
	}
	if alias.Fingerprint() != dgx.Fingerprint() {
		t.Error("dgx alias must build the same hardware as dgx-a100")
	}

	mixed, err := reg.Build("mixed", TopologyParams{Hosts: 3, Oversubscription: 2})
	if err != nil {
		t.Fatal(err)
	}
	hc, ok := mixed.(*HeteroCluster)
	if !ok {
		t.Fatalf("mixed built %T", mixed)
	}
	if hc.Oversubscription != 2 || hc.HostCount() != 3 {
		t.Errorf("mixed: %+v", hc)
	}
	// 1 p3 host (4 devices) + 2 DGX hosts (8 each).
	if hc.NumDevices() != 20 {
		t.Errorf("mixed devices = %d", hc.NumDevices())
	}
}

func TestRegistryErrors(t *testing.T) {
	reg := DefaultRegistry()
	if _, err := reg.Build("nope", TopologyParams{}); err == nil {
		t.Error("unknown preset must error")
	} else if !strings.Contains(err.Error(), "p3") {
		t.Errorf("error should list presets: %v", err)
	}
	if _, err := reg.Build("p3", TopologyParams{Hosts: -1}); err == nil {
		t.Error("negative hosts must error")
	}
	if _, err := reg.Build("p3", TopologyParams{Hosts: MaxRegistryHosts + 1}); err == nil {
		t.Error("host counts beyond the registry bound must error before allocating")
	}
	if _, err := reg.Build("mixed", TopologyParams{Oversubscription: -2}); err == nil {
		t.Error("negative oversubscription must error")
	}
	if _, err := reg.Build("mixed", TopologyParams{Oversubscription: 0.1}); err == nil {
		t.Error("oversubscription below 1 must error, not panic")
	}
	if _, err := reg.Build("mixed", TopologyParams{Hosts: 1}); err == nil {
		t.Error("mixed with one host must error")
	}

	fresh := NewRegistry()
	if err := fresh.Register("", nil); err == nil {
		t.Error("empty name must error")
	}
	if err := fresh.Register("x", nil); err == nil {
		t.Error("nil builder must error")
	}
	b := func(TopologyParams) (Topology, error) { return AWSP3Cluster(1), nil }
	if err := fresh.Register("x", b); err != nil {
		t.Fatal(err)
	}
	if err := fresh.Register("X", b); err == nil {
		t.Error("duplicate (case-insensitive) name must error")
	}
}

// TestRegistryZeroValue: a zero Registry is an empty one in all three
// tables, and each table keeps its own error texts.
func TestRegistryZeroValue(t *testing.T) {
	var r Registry
	topo := func(TopologyParams) (Topology, error) { return AWSP3Cluster(3), nil }
	fault := func(Topology) (FaultSet, error) { return FaultSet{}, nil }
	churn := func(Topology) (ChurnTimeline, error) { return ChurnTimeline{}, nil }
	if err := r.Register(" P3 ", topo); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterFaultScenario("calm", fault); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterChurnScenario("still", churn); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(append(append(r.Names(), r.FaultScenarioNames()...), r.ChurnScenarioNames()...), ","); got != "p3,calm,still" {
		t.Errorf("names = %s, want p3,calm,still", got)
	}
	if _, err := r.Build("P3", TopologyParams{}); err != nil {
		t.Error(err)
	}
	errText := func(err error) string {
		if err == nil {
			return "<nil>"
		}
		return err.Error()
	}
	_, errTopo := r.Build("x", TopologyParams{})
	_, errFault := r.BuildFaultScenario("x", AWSP3Cluster(3))
	_, errChurn := r.BuildChurnScenario("x", AWSP3Cluster(3))
	for _, c := range []struct {
		err  error
		want string
	}{
		{r.Register("", topo), "mesh: registry: empty topology name"},
		{r.Register("x", nil), `mesh: registry: nil builder for "x"`},
		{r.Register("p3", topo), `mesh: registry: topology "p3" already registered`},
		{errTopo, `mesh: unknown topology "x" (have p3)`},
		{r.RegisterFaultScenario(" ", fault), "mesh: registry: empty fault scenario name"},
		{r.RegisterFaultScenario("X", nil), `mesh: registry: nil fault scenario builder for "x"`},
		{r.RegisterFaultScenario("Calm", fault), `mesh: registry: fault scenario "calm" already registered`},
		{errFault, `mesh: unknown fault scenario "x" (have calm)`},
		{r.RegisterChurnScenario("", churn), "mesh: registry: empty churn scenario name"},
		{r.RegisterChurnScenario("x", nil), `mesh: registry: nil churn scenario builder for "x"`},
		{r.RegisterChurnScenario("still", churn), `mesh: registry: churn scenario "still" already registered`},
		{errChurn, `mesh: unknown churn scenario "x" (have still)`},
	} {
		if got := errText(c.err); got != c.want {
			t.Errorf("error %q, want %q", got, c.want)
		}
	}
}
