// Package mesh models the hardware the paper runs on: a cluster of hosts,
// each with several accelerator devices, fast intra-host interconnect
// (NVLink) and a single slower NIC per host (§3's cluster properties), and
// device meshes sliced out of the cluster for pipeline stages.
package mesh

import "fmt"

// Cluster describes a homogeneous accelerator cluster.
//
// The model captures exactly the four properties §3 of the paper assumes:
// fast intra-node / slow inter-node links, a fully connected inter-node
// fabric, a single NIC per host that bottlenecks cross-host traffic, and
// full-duplex (separate send/receive) bandwidth everywhere.
type Cluster struct {
	// NumHosts is the number of nodes.
	NumHosts int
	// DevicesPerHost is the number of accelerators per node.
	DevicesPerHost int
	// IntraHostBandwidth is the device-to-device bandwidth within a node,
	// in bytes/second per direction (NVLink-class).
	IntraHostBandwidth float64
	// HostBandwidth is the NIC bandwidth of one host, in bytes/second per
	// direction (Ethernet/InfiniBand-class).
	HostBandwidth float64
	// IntraHostLatency is the fixed per-transfer latency within a node, in
	// seconds.
	IntraHostLatency float64
	// InterHostLatency is the fixed per-transfer latency across nodes, in
	// seconds.
	InterHostLatency float64
	// NICsPerHost is the number of independent NICs per host, each with
	// HostBandwidth in both directions. Zero means one (the common cloud
	// setup, §3); values above one enable the paper's future-work
	// extension of splitting a unit task across NICs.
	NICsPerHost int
}

// NICs returns the effective NIC count per host (at least one).
func (c *Cluster) NICs() int {
	if c.NICsPerHost < 1 {
		return 1
	}
	return c.NICsPerHost
}

// WithNICs returns a copy of the cluster with n NICs per host.
func (c *Cluster) WithNICs(n int) *Cluster {
	cp := *c
	cp.NICsPerHost = n
	return &cp
}

// NewCluster validates and builds a cluster.
func NewCluster(hosts, devicesPerHost int, intraBW, hostBW, intraLat, interLat float64) (*Cluster, error) {
	switch {
	case hosts <= 0:
		return nil, fmt.Errorf("mesh: non-positive host count %d", hosts)
	case devicesPerHost <= 0:
		return nil, fmt.Errorf("mesh: non-positive devices per host %d", devicesPerHost)
	case intraBW <= 0 || hostBW <= 0:
		return nil, fmt.Errorf("mesh: bandwidths must be positive (intra=%g host=%g)", intraBW, hostBW)
	case intraLat < 0 || interLat < 0:
		return nil, fmt.Errorf("mesh: latencies must be non-negative")
	}
	return &Cluster{
		NumHosts:           hosts,
		DevicesPerHost:     devicesPerHost,
		IntraHostBandwidth: intraBW,
		HostBandwidth:      hostBW,
		IntraHostLatency:   intraLat,
		InterHostLatency:   interLat,
	}, nil
}

// AWS p3.8xlarge-like constants used throughout the paper's evaluation:
// 4 V100s per node with NVLink, 10 Gbps Ethernet between nodes.
const (
	// P3IntraHostBandwidth is an effective NVLink bandwidth (bytes/s).
	P3IntraHostBandwidth = 150e9
	// P3HostBandwidth is 10 Gbps in bytes/s.
	P3HostBandwidth = 10e9 / 8
	// P3IntraHostLatency is the per-transfer launch overhead within a node.
	P3IntraHostLatency = 5e-6
	// P3InterHostLatency is the per-transfer latency across Ethernet.
	P3InterHostLatency = 30e-6
)

// AWSP3Cluster builds the paper's testbed: hosts × 4 GPUs, NVLink inside,
// 10 Gbps between hosts.
func AWSP3Cluster(hosts int) *Cluster {
	c, err := NewCluster(hosts, 4, P3IntraHostBandwidth, P3HostBandwidth, P3IntraHostLatency, P3InterHostLatency)
	if err != nil {
		panic(err) // unreachable: constants are valid
	}
	return c
}

// NumDevices returns the total device count of the cluster.
func (c *Cluster) NumDevices() int { return c.NumHosts * c.DevicesPerHost }

// HostOf returns the host index that owns a device.
func (c *Cluster) HostOf(device int) int { return device / c.DevicesPerHost }

// ValidDevice reports whether the device index exists in the cluster.
func (c *Cluster) ValidDevice(device int) bool {
	return device >= 0 && device < c.NumDevices()
}

// SameHost reports whether two devices share a host.
func (c *Cluster) SameHost(a, b int) bool { return c.HostOf(a) == c.HostOf(b) }

// DevicesOnHost returns the device indices of one host.
func (c *Cluster) DevicesOnHost(host int) []int {
	out := make([]int, c.DevicesPerHost)
	for i := range out {
		out[i] = host*c.DevicesPerHost + i
	}
	return out
}

// HostDevices returns the first device index and device count of one host.
func (c *Cluster) HostDevices(host int) (first, n int) {
	return host * c.DevicesPerHost, c.DevicesPerHost
}

func (c *Cluster) String() string {
	if c.NICs() > 1 {
		return fmt.Sprintf("cluster(%d hosts x %d devices, intra %.0fGB/s, %d NICs x %.1fGbps)",
			c.NumHosts, c.DevicesPerHost, c.IntraHostBandwidth/1e9, c.NICs(), c.HostBandwidth*8/1e9)
	}
	return fmt.Sprintf("cluster(%d hosts x %d devices, intra %.0fGB/s, NIC %.1fGbps)",
		c.NumHosts, c.DevicesPerHost, c.IntraHostBandwidth/1e9, c.HostBandwidth*8/1e9)
}
