package mesh

import (
	"math"
	"reflect"
	"testing"
)

// The cluster and its fault overlay satisfy the pluggable hardware
// interface.
var (
	_ Topology = (*HeteroCluster)(nil)
	_ Topology = (*Faulted)(nil)
)

func TestNewHeteroClusterValidation(t *testing.T) {
	if _, err := NewHeteroCluster(nil, 0, 1); err == nil {
		t.Error("empty host list should fail")
	}
	bad := []HostSpec{{Devices: 0, IntraBandwidth: 1, NICBandwidth: 1}}
	if _, err := NewHeteroCluster(bad, 0, 1); err == nil {
		t.Error("zero devices should fail")
	}
	bad = []HostSpec{{Devices: 2, IntraBandwidth: 0, NICBandwidth: 1}}
	if _, err := NewHeteroCluster(bad, 0, 1); err == nil {
		t.Error("zero intra bandwidth should fail")
	}
	ok := []HostSpec{{Devices: 2, IntraBandwidth: 1, NICBandwidth: 1}}
	if _, err := NewHeteroCluster(ok, -1, 1); err == nil {
		t.Error("negative inter latency should fail")
	}
	if _, err := NewHeteroCluster(ok, 0, 0.5); err == nil {
		t.Error("oversubscription < 1 should fail")
	}
	nan, inf := math.NaN(), math.Inf(1)
	for name, spec := range map[string]HostSpec{
		"NaN intra latency":      {Devices: 2, IntraBandwidth: 1, NICBandwidth: 1, IntraLatency: nan},
		"infinite intra latency": {Devices: 2, IntraBandwidth: 1, NICBandwidth: 1, IntraLatency: inf},
		"NaN intra bandwidth":    {Devices: 2, IntraBandwidth: nan, NICBandwidth: 1},
		"infinite NIC bandwidth": {Devices: 2, IntraBandwidth: 1, NICBandwidth: inf},
	} {
		if _, err := NewHeteroCluster([]HostSpec{spec}, 0, 1); err == nil {
			t.Errorf("%s should fail", name)
		}
	}
	for _, lat := range []float64{nan, inf} {
		if _, err := NewHeteroCluster(ok, lat, 1); err == nil {
			t.Errorf("inter latency %g should fail", lat)
		}
	}
	for _, over := range []float64{nan, inf} {
		if _, err := NewHeteroCluster(ok, 0, over); err == nil {
			t.Errorf("oversubscription %g should fail", over)
		}
		if _, err := DefaultRegistry().Build(TopologyMixed, TopologyParams{Hosts: 3, Oversubscription: over}); err == nil {
			t.Errorf("the mixed preset with oversubscription %g should fail", over)
		}
	}
	hc, err := NewHeteroCluster(ok, 0, 0) // 0 defaults to 1
	if err != nil {
		t.Fatal(err)
	}
	if hc.Oversubscription != 1 {
		t.Errorf("zero oversubscription should default to 1, got %g", hc.Oversubscription)
	}
}

func TestDGXA100Preset(t *testing.T) {
	c := DGXA100Cluster(2)
	if c.HostCount() != 2 || c.NumDevices() != 16 {
		t.Errorf("DGX cluster = %d hosts, %d devices", c.HostCount(), c.NumDevices())
	}
	if c.NICCount(0) != 8 {
		t.Errorf("DGX NIC count = %d, want 8", c.NICCount(0))
	}
	if c.NICBandwidth(0)*8 != 200e9 {
		t.Errorf("DGX NIC = %g bits/s, want 200e9", c.NICBandwidth(0)*8)
	}
	if c.IntraBandwidth(0) <= c.NICBandwidth(0) {
		t.Error("NVSwitch must be faster than one NIC")
	}
	// An NVSwitch-class node must beat the p3 testbed on every tier.
	p3 := AWSP3Cluster(2)
	if c.IntraBandwidth(0) <= p3.IntraBandwidth(0) || c.NICBandwidth(0) <= p3.NICBandwidth(0) {
		t.Error("DGX-A100 preset must outclass the p3 preset")
	}
}

func TestMixedClusterHostMapping(t *testing.T) {
	// Hosts: 0-1 are p3 (4 devices), 2 is DGX (8 devices).
	c := MixedP3DGXCluster(2, 1, 1)
	if c.NumDevices() != 16 {
		t.Fatalf("NumDevices = %d, want 16", c.NumDevices())
	}
	for dev, want := range map[int]int{0: 0, 3: 0, 4: 1, 7: 1, 8: 2, 15: 2} {
		if got := c.HostOf(dev); got != want {
			t.Errorf("HostOf(%d) = %d, want %d", dev, got, want)
		}
	}
	if !reflect.DeepEqual(c.DevicesOnHost(2), []int{8, 9, 10, 11, 12, 13, 14, 15}) {
		t.Errorf("DevicesOnHost(2) = %v", c.DevicesOnHost(2))
	}
	if c.ValidDevice(16) || c.ValidDevice(-1) || !c.ValidDevice(15) {
		t.Error("ValidDevice wrong")
	}
}

func TestInterBandwidthOversubscription(t *testing.T) {
	c := MixedP3DGXCluster(1, 1, 2)
	// Cross-tier: bottlenecked by the p3 NIC, halved by 2:1 oversubscription.
	want := P3HostBandwidth / 2
	if got := c.InterBandwidth(0, 1); got != want {
		t.Errorf("InterBandwidth(p3, dgx) = %g, want %g", got, want)
	}
	if got := c.InterBandwidth(1, 0); got != want {
		t.Errorf("InterBandwidth must be symmetric, got %g", got)
	}
	// DGX-to-DGX keeps the fast NICs (modulo oversubscription).
	c2 := MixedP3DGXCluster(1, 2, 1)
	if got := c2.InterBandwidth(1, 2); got != DGXA100NICBandwidth {
		t.Errorf("InterBandwidth(dgx, dgx) = %g, want %g", got, DGXA100NICBandwidth)
	}
}

func TestHeteroSliceAcrossHosts(t *testing.T) {
	c := MixedP3DGXCluster(1, 1, 1)
	// A (2,4) mesh spanning the p3 host and half the DGX host.
	m, err := c.Slice([]int{2, 4}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.Hosts(), []int{0, 1}) {
		t.Errorf("Hosts = %v", m.Hosts())
	}
	byHost := m.DevicesByHost()
	if !reflect.DeepEqual(byHost[1], []int{4, 5, 6, 7}) {
		t.Errorf("DevicesByHost[1] = %v", byHost[1])
	}
	if _, err := c.Slice([]int{2, 4}, 10); err == nil {
		t.Error("slice past the last device should fail")
	}
}

func TestFingerprints(t *testing.T) {
	if AWSP3Cluster(2).Fingerprint() != AWSP3Cluster(2).Fingerprint() {
		t.Error("equal clusters must share a fingerprint")
	}
	if AWSP3Cluster(2).Fingerprint() == AWSP3Cluster(3).Fingerprint() {
		t.Error("different host counts must differ")
	}
	if DGXA100Cluster(2).Fingerprint() == DGXA100Cluster(3).Fingerprint() {
		t.Error("different hetero host counts must differ")
	}
	if AWSP3Cluster(2).Fingerprint() == DGXA100Cluster(2).Fingerprint() {
		t.Error("p3 and DGX must differ")
	}
	a := MixedP3DGXCluster(1, 1, 1)
	b := MixedP3DGXCluster(1, 1, 2)
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("oversubscription must be part of the fingerprint")
	}
}

func TestHostFingerprintRecognisesInterchangeableHosts(t *testing.T) {
	c := MixedP3DGXCluster(2, 2, 1)
	if HostFingerprint(c, 0) != HostFingerprint(c, 1) {
		t.Error("the two p3 hosts must be interchangeable")
	}
	if HostFingerprint(c, 2) != HostFingerprint(c, 3) {
		t.Error("the two DGX hosts must be interchangeable")
	}
	if HostFingerprint(c, 0) == HostFingerprint(c, 2) {
		t.Error("a p3 host must not match a DGX host")
	}
}

// uncomparableTopo embeds a topology inside an uncomparable struct value,
// modelling a third-party implementation that would make a bare interface
// comparison panic.
type uncomparableTopo struct {
	*HeteroCluster
	pad []int
}

func TestSameTopology(t *testing.T) {
	a, b := AWSP3Cluster(2), AWSP3Cluster(2)
	if !SameTopology(a, a) {
		t.Error("a topology must match itself")
	}
	if !SameTopology(a, b) {
		t.Error("independently built identical topologies must match by fingerprint")
	}
	if SameTopology(a, AWSP3Cluster(3)) {
		t.Error("different host counts must not match")
	}
	if SameTopology(a, nil) || !SameTopology(nil, nil) {
		t.Error("nil handling wrong")
	}
	// Uncomparable implementations must not panic and fall back to
	// fingerprint equality.
	u1 := uncomparableTopo{DGXA100Cluster(2), []int{1}}
	u2 := uncomparableTopo{DGXA100Cluster(2), []int{2}}
	if !SameTopology(u1, u2) {
		t.Error("equal-fingerprint uncomparable topologies must match")
	}
	if SameTopology(u1, uncomparableTopo{DGXA100Cluster(3), nil}) {
		t.Error("different-fingerprint uncomparable topologies must not match")
	}
}
