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
