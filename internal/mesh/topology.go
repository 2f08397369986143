// Package mesh models the hardware the paper runs on: a cluster of hosts,
// each with several accelerator devices behind a fast intra-host
// interconnect (NVLink) and one or more slower NICs, and device meshes
// sliced out of the cluster for pipeline stages. One type, HeteroCluster,
// describes every cluster; the paper's §3 testbed is the case of identical
// hosts with one NIC each (AWSP3Cluster, NewCluster).
package mesh

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Topology is the pluggable hardware model every layer above plans against:
// a set of hosts, each carrying accelerator devices behind a fast intra-host
// interconnect, joined by a (possibly oversubscribed) inter-host fabric.
//
// HeteroCluster (per-host specs; the paper's testbed is its case of
// identical one-NIC hosts) and the Faulted overlay implement it; the
// simulator, the resharding planner and the pipeline harness only ever see
// this interface, so new fabrics plug in without touching those layers.
//
// Device indices are global and dense: host h owns a contiguous run of
// indices, hosts in ascending order — the invariant the collective orders
// and the host-level scheduler rely on.
type Topology interface {
	// HostCount is the number of hosts.
	HostCount() int
	// NumDevices is the total accelerator count.
	NumDevices() int
	// HostOf returns the host index owning a device.
	HostOf(device int) int
	// DevicesOnHost returns the device indices of one host, ascending, in a
	// new slice.
	DevicesOnHost(host int) []int
	// HostDevices returns host h's device run without allocating: its
	// devices are first, first+1, ..., first+n-1.
	HostDevices(host int) (first, n int)
	// ValidDevice reports whether the device index exists.
	ValidDevice(device int) bool
	// IntraBandwidth is host h's device-to-device bandwidth, bytes/s per
	// direction (NVLink/NVSwitch-class).
	IntraBandwidth(host int) float64
	// IntraLatency is host h's fixed per-transfer latency, seconds.
	IntraLatency(host int) float64
	// NICBandwidth is one NIC's bandwidth on host h, bytes/s per direction.
	NICBandwidth(host int) float64
	// NICCount is the number of independent NICs on host h (>= 1).
	NICCount(host int) int
	// InterBandwidth is the effective point-to-point bandwidth of a
	// cross-host transfer src -> dst, bytes/s, after fabric oversubscription.
	InterBandwidth(srcHost, dstHost int) float64
	// InterLatency is the fixed cross-host transfer latency, seconds.
	InterLatency(srcHost, dstHost int) float64
	// Slice carves a row-major mesh out of a contiguous device run.
	Slice(shape []int, firstDevice int) (*Mesh, error)
	// Fingerprint is a stable identity string: two topologies with equal
	// fingerprints time every transfer identically. SameTopology falls
	// back to it whenever instance identity does not already decide.
	Fingerprint() string
	fmt.Stringer
}

// SameTopology reports whether two meshes' topologies describe the same
// hardware: pointer/value identity when the implementations are
// comparable (the cheap common case — one topology instance threaded
// everywhere), falling back to Fingerprint equality otherwise — so two
// independently built but identical topologies, or a Faulted overlay with
// an empty fault set and its base, compare equal. Interface equality
// alone would panic for implementations backed by uncomparable types
// (e.g. a struct holding a per-host slice by value).
func SameTopology(a, b Topology) bool {
	if a == nil || b == nil {
		return a == b
	}
	if reflect.TypeOf(a).Comparable() && reflect.TypeOf(b).Comparable() && a == b {
		return true
	}
	return a.Fingerprint() == b.Fingerprint()
}

// HostSpec describes one host of a heterogeneous cluster.
type HostSpec struct {
	// Devices is the accelerator count of this host.
	Devices int
	// IntraBandwidth is the device-to-device bandwidth within the host,
	// bytes/s per direction.
	IntraBandwidth float64
	// IntraLatency is the fixed intra-host per-transfer latency, seconds.
	IntraLatency float64
	// NICBandwidth is the bandwidth of one NIC, bytes/s per direction.
	NICBandwidth float64
	// NICs is the number of independent NICs (0 means 1).
	NICs int
}

// EffectiveNICs returns the NIC count, at least one.
func (s HostSpec) EffectiveNICs() int {
	if s.NICs < 1 {
		return 1
	}
	return s.NICs
}

func (s HostSpec) fingerprint() string {
	return fmt.Sprintf("d%d,ib%g,il%g,nb%g,nn%d",
		s.Devices, s.IntraBandwidth, s.IntraLatency, s.NICBandwidth, s.EffectiveNICs())
}

// HeteroCluster is a heterogeneous accelerator cluster: per-host device
// counts, interconnects and NIC tiers, plus a switch fabric whose
// oversubscription divides effective cross-host bandwidth. With identical
// one-NIC hosts on a 1:1 fabric it is the paper's testbed, whose §3
// properties it keeps: fast intra-host / slow inter-host links, a fully
// connected inter-host fabric, a NIC per host that bottlenecks cross-host
// traffic, and full-duplex bandwidth everywhere. Per-host specs, several
// NICs and oversubscription give the multi-NIC / mixed-fabric setting §3.1
// leaves as future work.
type HeteroCluster struct {
	// Hosts holds one spec per host, in device-index order.
	Hosts []HostSpec
	// InterHostLatency is the fixed cross-host transfer latency, seconds.
	InterHostLatency float64
	// Oversubscription >= 1 divides effective cross-host bandwidth: a 2:1
	// oversubscribed leaf-spine fabric halves point-to-point throughput.
	Oversubscription float64
	// firstDev[h] is the global index of host h's first device;
	// firstDev[len(Hosts)] is the total device count.
	firstDev []int
}

// NewHeteroCluster validates per-host specs and builds the cluster. Every
// latency, bandwidth and the oversubscription must be finite: a NaN or an
// infinity would time every transfer over it as NaN or infinite.
func NewHeteroCluster(hosts []HostSpec, interLatency, oversubscription float64) (*HeteroCluster, error) {
	if len(hosts) == 0 {
		return nil, fmt.Errorf("mesh: heterogeneous cluster needs at least one host")
	}
	if !finite(interLatency) || !finite(oversubscription) {
		return nil, fmt.Errorf("mesh: inter-host latency %g and oversubscription %g must be finite", interLatency, oversubscription)
	}
	if interLatency < 0 {
		return nil, fmt.Errorf("mesh: negative inter-host latency %g", interLatency)
	}
	if oversubscription == 0 {
		oversubscription = 1
	}
	if oversubscription < 1 {
		return nil, fmt.Errorf("mesh: oversubscription %g < 1", oversubscription)
	}
	hc := &HeteroCluster{
		Hosts:            append([]HostSpec(nil), hosts...),
		InterHostLatency: interLatency,
		Oversubscription: oversubscription,
		firstDev:         make([]int, len(hosts)+1),
	}
	for h, s := range hosts {
		switch {
		case s.Devices <= 0:
			return nil, fmt.Errorf("mesh: host %d has non-positive device count %d", h, s.Devices)
		case !finite(s.IntraBandwidth) || !finite(s.NICBandwidth) || !finite(s.IntraLatency):
			return nil, fmt.Errorf("mesh: host %d bandwidths and latency must be finite (intra=%g nic=%g latency=%g)",
				h, s.IntraBandwidth, s.NICBandwidth, s.IntraLatency)
		case s.IntraBandwidth <= 0 || s.NICBandwidth <= 0:
			return nil, fmt.Errorf("mesh: host %d bandwidths must be positive (intra=%g nic=%g)", h, s.IntraBandwidth, s.NICBandwidth)
		case s.IntraLatency < 0:
			return nil, fmt.Errorf("mesh: host %d has negative latency", h)
		}
		hc.firstDev[h+1] = hc.firstDev[h] + s.Devices
	}
	return hc, nil
}

// finite reports whether x is neither NaN nor an infinity.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// MustHeteroCluster is NewHeteroCluster that panics on error; for presets
// whose parameters are valid by construction.
func MustHeteroCluster(hosts []HostSpec, interLatency, oversubscription float64) *HeteroCluster {
	hc, err := NewHeteroCluster(hosts, interLatency, oversubscription)
	if err != nil {
		panic(err)
	}
	return hc
}

// HostCount returns the number of hosts.
func (hc *HeteroCluster) HostCount() int { return len(hc.Hosts) }

// NumDevices returns the total device count.
func (hc *HeteroCluster) NumDevices() int { return hc.firstDev[len(hc.Hosts)] }

// HostOf returns the host owning a device (binary search over the per-host
// device runs).
func (hc *HeteroCluster) HostOf(device int) int {
	return sort.Search(len(hc.Hosts), func(h int) bool { return hc.firstDev[h+1] > device })
}

// DevicesOnHost returns the device indices of one host.
func (hc *HeteroCluster) DevicesOnHost(host int) []int {
	out := make([]int, hc.Hosts[host].Devices)
	for i := range out {
		out[i] = hc.firstDev[host] + i
	}
	return out
}

// HostDevices returns the first device index and device count of one host.
func (hc *HeteroCluster) HostDevices(host int) (first, n int) {
	return hc.firstDev[host], hc.Hosts[host].Devices
}

// ValidDevice reports whether the device index exists.
func (hc *HeteroCluster) ValidDevice(device int) bool {
	return device >= 0 && device < hc.NumDevices()
}

// IntraBandwidth returns host h's intra-host bandwidth.
func (hc *HeteroCluster) IntraBandwidth(host int) float64 { return hc.Hosts[host].IntraBandwidth }

// IntraLatency returns host h's intra-host latency.
func (hc *HeteroCluster) IntraLatency(host int) float64 { return hc.Hosts[host].IntraLatency }

// NICBandwidth returns host h's per-NIC bandwidth.
func (hc *HeteroCluster) NICBandwidth(host int) float64 { return hc.Hosts[host].NICBandwidth }

// NICCount returns host h's NIC count.
func (hc *HeteroCluster) NICCount(host int) int { return hc.Hosts[host].EffectiveNICs() }

// InterBandwidth is the slower endpoint NIC divided by the fabric
// oversubscription factor.
func (hc *HeteroCluster) InterBandwidth(srcHost, dstHost int) float64 {
	bw := hc.Hosts[srcHost].NICBandwidth
	if d := hc.Hosts[dstHost].NICBandwidth; d < bw {
		bw = d
	}
	return bw / hc.Oversubscription
}

// InterLatency returns the uniform cross-host latency.
func (hc *HeteroCluster) InterLatency(srcHost, dstHost int) float64 { return hc.InterHostLatency }

// Slice carves a row-major mesh out of a contiguous device run.
func (hc *HeteroCluster) Slice(shape []int, firstDevice int) (*Mesh, error) {
	return sliceTopology(hc, shape, firstDevice)
}

// Fingerprint identifies the topology by every per-host spec plus the
// fabric parameters.
func (hc *HeteroCluster) Fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "hetero(il=%g,ov=%g", hc.InterHostLatency, hc.Oversubscription)
	for _, s := range hc.Hosts {
		b.WriteByte(';')
		b.WriteString(s.fingerprint())
	}
	b.WriteByte(')')
	return b.String()
}

// String summarizes the cluster: its totals, then each run of identical
// consecutive hosts with its size, device count and NIC tier, e.g.
// "hetero-cluster(3 hosts, 16 devices, oversub 1.5:1: 2x[4 dev, 1x10 Gbps
// NIC] + 1x[8 dev, 8x200 Gbps NIC])".
func (hc *HeteroCluster) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "hetero-cluster(%d hosts, %d devices, oversub %.1f:1:",
		hc.HostCount(), hc.NumDevices(), hc.Oversubscription)
	for i := 0; i < len(hc.Hosts); {
		j := i + 1
		for j < len(hc.Hosts) && hc.Hosts[j] == hc.Hosts[i] {
			j++
		}
		if i > 0 {
			b.WriteString(" +")
		}
		s := hc.Hosts[i]
		fmt.Fprintf(&b, " %dx[%d dev, %dx%g Gbps NIC]", j-i, s.Devices, s.EffectiveNICs(), s.NICBandwidth*8/1e9)
		i = j
	}
	b.WriteByte(')')
	return b.String()
}

// NewCluster validates and builds a cluster of identical hosts: each with
// devicesPerHost devices, intra-host bandwidth intraBW and latency intraLat,
// and one NIC of hostBW, on a non-oversubscribed fabric with cross-host
// latency interLat. Bandwidths are bytes/s per direction, latencies seconds.
func NewCluster(hosts, devicesPerHost int, intraBW, hostBW, intraLat, interLat float64) (*HeteroCluster, error) {
	if hosts <= 0 {
		return nil, fmt.Errorf("mesh: non-positive host count %d", hosts)
	}
	host := HostSpec{Devices: devicesPerHost, IntraBandwidth: intraBW, IntraLatency: intraLat, NICBandwidth: hostBW, NICs: 1}
	return NewHeteroCluster(slices.Repeat([]HostSpec{host}, hosts), interLat, 1)
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

// P3HostSpec returns one AWS p3.8xlarge-class host: 4 V100, NVLink, one
// 10 Gbps NIC.
func P3HostSpec() HostSpec {
	return HostSpec{
		Devices:        4,
		IntraBandwidth: P3IntraHostBandwidth,
		IntraLatency:   P3IntraHostLatency,
		NICBandwidth:   P3HostBandwidth,
		NICs:           1,
	}
}

// AWSP3Cluster builds the paper's testbed: hosts x 4 GPUs, NVLink inside,
// 10 Gbps Ethernet between hosts on a non-oversubscribed fabric.
func AWSP3Cluster(hosts int) *HeteroCluster {
	return MustHeteroCluster(slices.Repeat([]HostSpec{P3HostSpec()}, hosts), P3InterHostLatency, 1)
}

// DGX A100 / NVSwitch-class constants: 8 A100s behind NVSwitch with eight
// HDR-200 InfiniBand compute NICs per node.
const (
	// DGXA100IntraBandwidth is the per-GPU NVSwitch bandwidth (bytes/s).
	DGXA100IntraBandwidth = 600e9
	// DGXA100IntraLatency is the NVSwitch per-transfer launch overhead.
	DGXA100IntraLatency = 3e-6
	// DGXA100NICBandwidth is one HDR-200 NIC, 200 Gbps in bytes/s.
	DGXA100NICBandwidth = 200e9 / 8
	// DGXA100InterLatency is the InfiniBand cross-host latency.
	DGXA100InterLatency = 5e-6
)

// DGXA100HostSpec returns one DGX-A100-class host: 8 GPUs, NVSwitch
// intra-host, 8 x 200 Gbps InfiniBand NICs.
func DGXA100HostSpec() HostSpec {
	return HostSpec{
		Devices:        8,
		IntraBandwidth: DGXA100IntraBandwidth,
		IntraLatency:   DGXA100IntraLatency,
		NICBandwidth:   DGXA100NICBandwidth,
		NICs:           8,
	}
}

// DGXA100Cluster builds an InfiniBand/NVSwitch-class cluster of DGX-A100
// nodes with a non-oversubscribed fabric.
func DGXA100Cluster(hosts int) *HeteroCluster {
	return MustHeteroCluster(slices.Repeat([]HostSpec{DGXA100HostSpec()}, hosts), DGXA100InterLatency, 1)
}

// MixedP3DGXCluster builds the heterogeneous scenario of the examples: p3
// Ethernet hosts alongside DGX-A100 InfiniBand hosts on one fabric with the
// given oversubscription. Cross-tier transfers bottleneck on the p3 NIC.
func MixedP3DGXCluster(p3Hosts, dgxHosts int, oversubscription float64) *HeteroCluster {
	specs := make([]HostSpec, 0, p3Hosts+dgxHosts)
	for i := 0; i < p3Hosts; i++ {
		specs = append(specs, P3HostSpec())
	}
	for i := 0; i < dgxHosts; i++ {
		specs = append(specs, DGXA100HostSpec())
	}
	return MustHeteroCluster(specs, P3InterHostLatency, oversubscription)
}

// HostFingerprint renders the identity of one host as seen by the
// simulator: device count, intra-host link, NIC tier. Two hosts with equal
// fingerprints are interchangeable in any transfer schedule — the
// plan cache uses this to recognise stage boundaries that differ only by
// which physical hosts they sit on.
func HostFingerprint(t Topology, host int) string {
	return string(AppendHostFingerprint(nil, t, host))
}

// AppendHostFingerprint appends HostFingerprint(t, host) to b — byte for byte
// what the fmt verbs %d and %g render — for resharding.CacheKey, which folds
// in one fingerprint per involved host on every request parse.
func AppendHostFingerprint(b []byte, t Topology, host int) []byte {
	_, n := t.HostDevices(host)
	b = strconv.AppendInt(append(b, 'd'), int64(n), 10)
	b = strconv.AppendFloat(append(b, ",ib"...), t.IntraBandwidth(host), 'g', -1, 64)
	b = strconv.AppendFloat(append(b, ",il"...), t.IntraLatency(host), 'g', -1, 64)
	b = strconv.AppendFloat(append(b, ",nb"...), t.NICBandwidth(host), 'g', -1, 64)
	return strconv.AppendInt(append(b, ",nn"...), int64(t.NICCount(host)), 10)
}
