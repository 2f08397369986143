package mesh

import (
	"fmt"
	"reflect"
	"strconv"
	"testing"
)

func TestNewClusterValidation(t *testing.T) {
	if _, err := NewCluster(0, 4, 1, 1, 0, 0); err == nil {
		t.Error("zero hosts should fail")
	}
	if _, err := NewCluster(2, 0, 1, 1, 0, 0); err == nil {
		t.Error("zero devices per host should fail")
	}
	if _, err := NewCluster(2, 4, 0, 1, 0, 0); err == nil {
		t.Error("zero intra bandwidth should fail")
	}
	if _, err := NewCluster(2, 4, 1, 1, -1, 0); err == nil {
		t.Error("negative latency should fail")
	}
	c, err := NewCluster(2, 4, 100, 10, 1e-6, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumDevices() != 8 {
		t.Errorf("NumDevices = %d", c.NumDevices())
	}
}

func TestAWSP3Cluster(t *testing.T) {
	c := AWSP3Cluster(3)
	if c.HostCount() != 3 || c.NumDevices() != 12 {
		t.Errorf("p3 cluster = %v", c)
	}
	for h := 0; h < c.HostCount(); h++ {
		if first, n := c.HostDevices(h); first != 4*h || n != 4 || c.NICCount(h) != 1 {
			t.Errorf("host %d: devices %d+%d, %d NICs; want %d+4, 1 NIC", h, first, n, c.NICCount(h), 4*h)
		}
	}
	if c.NICBandwidth(0)*8 != 10e9 {
		t.Errorf("NIC bandwidth = %g bits/s, want 10e9", c.NICBandwidth(0)*8)
	}
	if c.IntraBandwidth(0) <= c.NICBandwidth(0) {
		t.Error("NVLink must be faster than the NIC")
	}
	same, err := NewCluster(3, 4, P3IntraHostBandwidth, P3HostBandwidth, P3IntraHostLatency, P3InterHostLatency)
	if err != nil || same.Fingerprint() != c.Fingerprint() {
		t.Errorf("NewCluster with the p3 constants = %v, %v; want the p3 cluster %s", same, err, c.Fingerprint())
	}
}

func TestClusterHostMapping(t *testing.T) {
	c := AWSP3Cluster(2)
	if c.HostOf(0) != 0 || c.HostOf(3) != 0 || c.HostOf(4) != 1 || c.HostOf(7) != 1 {
		t.Error("HostOf mapping wrong")
	}
	if !reflect.DeepEqual(c.DevicesOnHost(1), []int{4, 5, 6, 7}) {
		t.Errorf("DevicesOnHost(1) = %v", c.DevicesOnHost(1))
	}
	if c.ValidDevice(8) || c.ValidDevice(-1) || !c.ValidDevice(7) {
		t.Error("ValidDevice wrong")
	}
}

func TestNewMeshValidation(t *testing.T) {
	c := AWSP3Cluster(2)
	if _, err := NewMesh(nil, []int{2}, []int{0, 1}); err == nil {
		t.Error("nil cluster should fail")
	}
	if _, err := NewMesh(c, nil, nil); err == nil {
		t.Error("empty shape should fail")
	}
	if _, err := NewMesh(c, []int{2, 0}, nil); err == nil {
		t.Error("zero extent should fail")
	}
	if _, err := NewMesh(c, []int{2, 2}, []int{0, 1, 2}); err == nil {
		t.Error("wrong device count should fail")
	}
	if _, err := NewMesh(c, []int{2}, []int{0, 0}); err == nil {
		t.Error("duplicate devices should fail")
	}
	if _, err := NewMesh(c, []int{2}, []int{0, 99}); err == nil {
		t.Error("out-of-cluster device should fail")
	}
}

func TestMeshSliceAndCoords(t *testing.T) {
	c := AWSP3Cluster(2)
	// A (2,2) mesh [[0,1],[2,3]] as in Figure 2's MeshA.
	m, err := c.Slice([]int{2, 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := m.DeviceAt(0, 1); d != 1 {
		t.Errorf("DeviceAt(0,1) = %d", d)
	}
	if d, _ := m.DeviceAt(1, 0); d != 2 {
		t.Errorf("DeviceAt(1,0) = %d", d)
	}
	if _, err := m.DeviceAt(2, 0); err == nil {
		t.Error("out-of-range coordinate should fail")
	}
	if _, err := m.DeviceAt(0); err == nil {
		t.Error("rank mismatch should fail")
	}
	if !reflect.DeepEqual(m.CoordOf(3), []int{1, 1}) {
		t.Errorf("CoordOf(3) = %v", m.CoordOf(3))
	}
}

func TestMeshHosts(t *testing.T) {
	c := AWSP3Cluster(3)
	// (2,4): spans hosts 0 and 1.
	m, _ := c.Slice([]int{2, 4}, 0)
	if !reflect.DeepEqual(m.Hosts(), []int{0, 1}) {
		t.Errorf("Hosts = %v", m.Hosts())
	}
	byHost := m.DevicesByHost()
	if !reflect.DeepEqual(byHost[1], []int{4, 5, 6, 7}) {
		t.Errorf("DevicesByHost[1] = %v", byHost[1])
	}
}

func TestMeshDisjoint(t *testing.T) {
	c := AWSP3Cluster(4)
	a, _ := c.Slice([]int{2, 2}, 0)
	b, _ := c.Slice([]int{2, 2}, 4)
	overlapping, _ := c.Slice([]int{2, 2}, 2)
	if !Disjoint(a, b) {
		t.Error("meshes on different hosts should be disjoint")
	}
	if Disjoint(a, overlapping) {
		t.Error("meshes sharing devices should not be disjoint")
	}
}

func TestMeshReshape(t *testing.T) {
	c := AWSP3Cluster(1)
	m, _ := c.Slice([]int{2, 2}, 0)
	flat, err := m.Reshape([]int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := flat.DeviceAt(0, 3); d != 3 {
		t.Errorf("reshaped DeviceAt(0,3) = %d", d)
	}
	if _, err := m.Reshape([]int{3, 2}); err == nil {
		t.Error("reshape to wrong element count should fail")
	}
}

func TestMeshContains(t *testing.T) {
	c := AWSP3Cluster(2)
	m, _ := c.Slice([]int{1, 4}, 4)
	if !m.Contains(5) || m.Contains(3) {
		t.Error("Contains wrong")
	}
}

func TestStringers(t *testing.T) {
	c := AWSP3Cluster(2)
	if c.String() == "" {
		t.Error("cluster String empty")
	}
	m, _ := c.Slice([]int{1, 2}, 0)
	if m.String() == "" {
		t.Error("mesh String empty")
	}
}

// TestClusterStringTellsHostsApart: clusters whose hosts differ only in
// NIC count or NIC bandwidth print different summaries, and the p3 preset
// prints its host run in full.
func TestClusterStringTellsHostsApart(t *testing.T) {
	fourNICs, slowNIC := P3HostSpec(), P3HostSpec()
	fourNICs.NICs = 4
	slowNIC.NICBandwidth /= 4
	clusters := map[string]*HeteroCluster{
		"p3":        AWSP3Cluster(2),
		"p3 4 NICs": MustHeteroCluster([]HostSpec{fourNICs, fourNICs}, P3InterHostLatency, 1),
		"p3 slow":   MustHeteroCluster([]HostSpec{slowNIC, slowNIC}, P3InterHostLatency, 1),
		"dgx-a100":  DGXA100Cluster(2),
		"mixed":     MixedP3DGXCluster(2, 1, 1.5),
	}
	seen := map[string]string{}
	for name, c := range clusters {
		s := c.String()
		if other, ok := seen[s]; ok {
			t.Errorf("%s and %s both print %q", name, other, s)
		}
		seen[s] = name
	}
	if got, want := clusters["p3"].String(), "hetero-cluster(2 hosts, 8 devices, oversub 1.0:1: 2x[4 dev, 1x10 Gbps NIC])"; got != want {
		t.Errorf("p3 prints %q, want %q", got, want)
	}
	if got, want := clusters["mixed"].String(), "hetero-cluster(3 hosts, 16 devices, oversub 1.5:1: 2x[4 dev, 1x10 Gbps NIC] + 1x[8 dev, 8x200 Gbps NIC])"; got != want {
		t.Errorf("mixed prints %q, want %q", got, want)
	}
}

func TestClusterNICs(t *testing.T) {
	if n := AWSP3Cluster(2).NICCount(1); n != 1 {
		t.Errorf("p3 NICs = %d, want 1", n)
	}
	host := P3HostSpec()
	host.NICs = 4
	zero := P3HostSpec()
	zero.NICs = 0
	c := MustHeteroCluster([]HostSpec{host, zero}, P3InterHostLatency, 1)
	if c.NICCount(0) != 4 || c.NICCount(1) != 1 {
		t.Errorf("NICCount = %d, %d; want 4, and zero NICs clamped to 1", c.NICCount(0), c.NICCount(1))
	}
}

// TestNewMeshErrors pins NewMesh's and ParseSlice's error texts, on a
// topology small enough for the duplicate check's fixed bitset and on one
// past it, and that a mesh's shape and devices do not alias the caller's.
func TestNewMeshErrors(t *testing.T) {
	for _, c := range []*HeteroCluster{AWSP3Cluster(2), AWSP3Cluster(80)} {
		n := c.NumDevices()
		for _, tc := range []struct {
			devices []int
			want    string
		}{
			{[]int{1, 0, n - 1, 1}, "mesh: duplicate device 1"},
			{[]int{n - 1, 2, 0, n - 1}, fmt.Sprintf("mesh: duplicate device %d", n-1)},
			{[]int{0, n, 1, 1}, fmt.Sprintf("mesh: device %d outside topology with %d devices", n, n)},
			{[]int{0, 1, -1, 2}, fmt.Sprintf("mesh: device -1 outside topology with %d devices", n)},
		} {
			if _, err := NewMesh(c, []int{2, 2}, tc.devices); err == nil || err.Error() != tc.want {
				t.Errorf("%d devices: NewMesh(%v) = %v, want %q", n, tc.devices, err, tc.want)
			}
		}
		shape, devices := []int{2, 2}, []int{n - 1, 0, n - 2, 1}
		m, err := NewMesh(c, shape, devices)
		if err != nil {
			t.Fatal(err)
		}
		shape[0], devices[0] = 9, 9
		if !reflect.DeepEqual(m.Shape, []int{2, 2}) || !reflect.DeepEqual(m.Devices, []int{n - 1, 0, n - 2, 1}) {
			t.Errorf("mesh %v aliases its arguments", m)
		}
		if m2, err := ParseSlice(c, "2x2@"+strconv.Itoa(n-4)); err != nil || !reflect.DeepEqual(m2.Devices, []int{n - 4, n - 3, n - 2, n - 1}) {
			t.Errorf("ParseSlice at the last host = %v, %v", m2, err)
		}
	}
	c := AWSP3Cluster(2)
	for _, tc := range []struct{ in, want string }{
		{"2x2", `mesh: "2x2" must look like 2x4@0`},
		{"2x2@0@4", `mesh: "2x2@0@4" must look like 2x4@0`},
		{"2x2@", `mesh: bad first device in "2x2@": strconv.Atoi: parsing "": invalid syntax`},
		{"2xa@0", `mesh: bad shape in "2xa@0": strconv.Atoi: parsing "a": invalid syntax`},
		{"2x@0", `mesh: bad shape in "2x@0": strconv.Atoi: parsing "": invalid syntax`},
		{"@0", `mesh: bad shape in "@0": strconv.Atoi: parsing "": invalid syntax`},
		{"2x0@0", "mesh: non-positive extent in shape [2 0]"},
		{"4x2@4", "mesh: device 8 outside topology with 8 devices"},
	} {
		if _, err := ParseSlice(c, tc.in); err == nil || err.Error() != tc.want {
			t.Errorf("ParseSlice(%q) = %v, want %q", tc.in, err, tc.want)
		}
	}
	m, err := ParseSlice(c, "1x2x2@2")
	if err != nil || !reflect.DeepEqual(m.Shape, []int{1, 2, 2}) || !reflect.DeepEqual(m.Devices, []int{2, 3, 4, 5}) {
		t.Errorf("ParseSlice(1x2x2@2) = %v, %v", m, err)
	}
}

// TestHostDevicesMatchesDevicesOnHost: every topology's allocation-free
// device run is the list DevicesOnHost renders.
func TestHostDevicesMatchesDevicesOnHost(t *testing.T) {
	mixed := MixedP3DGXCluster(2, 3, 2)
	for _, topo := range []Topology{AWSP3Cluster(3), DGXA100Cluster(2), mixed,
		MustFaulted(mixed, FaultSet{Hosts: []HostFault{{Host: 1, NICScale: 0.5}}})} {
		for h := 0; h < topo.HostCount(); h++ {
			first, n := topo.HostDevices(h)
			var run []int
			for d := first; d < first+n; d++ {
				run = append(run, d)
			}
			if want := topo.DevicesOnHost(h); !reflect.DeepEqual(run, want) {
				t.Errorf("%v host %d: HostDevices = (%d, %d), DevicesOnHost = %v", topo, h, first, n, want)
			}
		}
	}
}
