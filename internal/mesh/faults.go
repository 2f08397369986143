package mesh

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// The degraded-topology scenario engine: a deterministic fault overlay on
// any Topology. Real fleets do not run on pristine clusters — links go
// down, spines brown out, one host's NIC firmware throttles — and a plan
// served for the healthy fabric can be badly wrong on the degraded one.
// Faulted decorates a base topology with a FaultSet so every layer above
// (netsim costs, the resharding planner, the plan cache, the serving API)
// sees the degraded hardware through the same Topology interface it
// already plans against, and the fault set is folded into Fingerprint so
// healthy and degraded plans can never share a cache entry.

// LinkFault degrades the inter-host link between hosts A and B (an
// unordered pair). Exactly one of two forms is valid:
//
//   - a degradation: BandwidthScale in (0, 1] (0 means unscaled) and/or
//     ExtraLatency >= 0 added to every transfer on the link;
//   - a down link: Down true, no scaling fields. Traffic detours through
//     the relay host with the best surviving two-hop path (the fabric
//     reroutes below the NICs, so the relay's NICs are not modelled as
//     occupied); a fault set that leaves any pair with no live detour is
//     rejected at NewFaulted.
type LinkFault struct {
	// A and B are the host indices of the link's endpoints.
	A, B int
	// Down marks the link down entirely.
	Down bool
	// BandwidthScale multiplies the link's effective bandwidth; (0, 1],
	// 0 means unscaled.
	BandwidthScale float64
	// ExtraLatency is added to the link's per-transfer latency, seconds.
	ExtraLatency float64
}

// HostFault marks one host a straggler: its NIC and/or intra-host
// bandwidth run below spec. NICScale also scales every cross-host path
// touching the host — the NIC is the bottleneck the fabric model already
// assumes.
type HostFault struct {
	// Host is the straggler's host index.
	Host int
	// NICScale multiplies the host's NIC bandwidth and every inter-host
	// bandwidth touching the host; (0, 1], 0 means unscaled.
	NICScale float64
	// IntraScale multiplies the host's intra-host (NVLink-class)
	// bandwidth; (0, 1], 0 means unscaled.
	IntraScale float64
}

// FaultSet is a deterministic overlay of degradations: down or degraded
// inter-host links plus straggler hosts. The zero value is the healthy
// overlay — wrapping a topology with it is a provable identity (same
// fingerprint, same timing, same cache keys).
type FaultSet struct {
	Links []LinkFault
	Hosts []HostFault
}

// Empty reports whether the overlay degrades nothing.
func (fs FaultSet) Empty() bool { return len(fs.Links) == 0 && len(fs.Hosts) == 0 }

// scaleOr returns s treating the zero value as "unscaled".
func scaleOr(s float64) float64 {
	if s == 0 {
		return 1
	}
	return s
}

// validScale reports whether a scale field is usable: zero (unscaled) or
// in (0, 1]. NaN and infinities are rejected.
func validScale(s float64) bool {
	return !math.IsNaN(s) && !math.IsInf(s, 0) && s >= 0 && s <= 1
}

// normalized returns a copy with link endpoints ordered A < B, links
// sorted by (A, B) and host faults sorted by host — the canonical form
// Canonical and Fingerprint render. It does not validate.
func (fs FaultSet) normalized() FaultSet {
	out := FaultSet{
		Links: append([]LinkFault(nil), fs.Links...),
		Hosts: append([]HostFault(nil), fs.Hosts...),
	}
	for i := range out.Links {
		if out.Links[i].A > out.Links[i].B {
			out.Links[i].A, out.Links[i].B = out.Links[i].B, out.Links[i].A
		}
	}
	sort.Slice(out.Links, func(i, j int) bool {
		if out.Links[i].A != out.Links[j].A {
			return out.Links[i].A < out.Links[j].A
		}
		return out.Links[i].B < out.Links[j].B
	})
	sort.Slice(out.Hosts, func(i, j int) bool { return out.Hosts[i].Host < out.Hosts[j].Host })
	return out
}

// Canonical renders the overlay's identity: the normalized fault list in
// a stable textual form. Two fault sets with equal canonical strings
// degrade any topology identically. The empty overlay renders "".
func (fs FaultSet) Canonical() string {
	if fs.Empty() {
		return ""
	}
	n := fs.normalized()
	var b strings.Builder
	for _, l := range n.Links {
		fmt.Fprintf(&b, "L%d-%d:", l.A, l.B)
		if l.Down {
			b.WriteString("down")
		} else {
			fmt.Fprintf(&b, "bw%g,lat%g", scaleOr(l.BandwidthScale), l.ExtraLatency)
		}
		b.WriteByte(';')
	}
	for _, h := range n.Hosts {
		fmt.Fprintf(&b, "H%d:nic%g,intra%g;", h.Host, scaleOr(h.NICScale), scaleOr(h.IntraScale))
	}
	return b.String()
}

// linkOverlay is the resolved per-link state of a Faulted topology.
type linkOverlay struct {
	down     bool
	scale    float64
	extraLat float64
	// detour* hold the precomputed two-hop reroute of a down link, one
	// value per direction (a->b, b->a) where a < b.
	detourBW  [2]float64
	detourLat [2]float64
}

// Faulted decorates a base Topology with a FaultSet. It implements
// Topology, so the netsim cost model, the resharding planner and the plan
// cache pick the degradation up with no changes: every transfer is timed
// against the degraded bandwidths and latencies, and CacheKey — built
// from host fingerprints and pairwise fabric properties — partitions
// healthy from degraded plans automatically. Fingerprint folds the fault
// set in, so SameTopology and topology-pinned sessions distinguish the
// overlay from its base; an empty FaultSet is a strict identity (same
// fingerprint, same timing).
//
// Degradations are monotone by construction: every scale is <= 1, every
// extra latency >= 0, and a down link's detour bandwidth is capped at the
// direct link's while its latency is floored at the direct link's — so no
// transfer is ever faster on the faulted topology than on its base.
//
// A Faulted is immutable after construction and safe for concurrent use.
type Faulted struct {
	base Topology
	fs   FaultSet // normalized
	// nicScale / intraScale hold the per-host straggler factors (1 when
	// unfaulted); indexed by host.
	nicScale   []float64
	intraScale []float64
	// links maps the normalized pair key of each faulted link to its
	// resolved overlay.
	links map[int64]*linkOverlay
}

// pairKey builds the unordered-pair map key.
func pairKey(a, b int) int64 {
	if a > b {
		a, b = b, a
	}
	return int64(a)<<32 | int64(b)
}

// NewFaulted validates the fault set against the base topology and builds
// the overlay. Host and link indices must exist, endpoints must differ,
// scales must be in (0, 1] (zero means unscaled), extra latencies must be
// non-negative, a down link may not also carry scaling fields, duplicate
// link or host faults are rejected, and every down link must leave a live
// two-hop detour. Wrapping an empty fault set is valid and is an exact
// identity.
func NewFaulted(base Topology, fs FaultSet) (*Faulted, error) {
	if base == nil {
		return nil, fmt.Errorf("mesh: faulted: nil base topology")
	}
	hosts := base.HostCount()
	fs = fs.normalized()
	f := &Faulted{
		base:       base,
		fs:         fs,
		nicScale:   make([]float64, hosts),
		intraScale: make([]float64, hosts),
		links:      make(map[int64]*linkOverlay, len(fs.Links)),
	}
	for h := range f.nicScale {
		f.nicScale[h] = 1
		f.intraScale[h] = 1
	}
	for _, hf := range fs.Hosts {
		if hf.Host < 0 || hf.Host >= hosts {
			return nil, fmt.Errorf("mesh: faulted: host fault on host %d of a %d-host topology", hf.Host, hosts)
		}
		if !validScale(hf.NICScale) || !validScale(hf.IntraScale) {
			return nil, fmt.Errorf("mesh: faulted: host %d scales must be in (0,1] (nic=%g intra=%g)", hf.Host, hf.NICScale, hf.IntraScale)
		}
		if f.nicScale[hf.Host] != 1 || f.intraScale[hf.Host] != 1 {
			return nil, fmt.Errorf("mesh: faulted: duplicate host fault on host %d", hf.Host)
		}
		if scaleOr(hf.NICScale) == 1 && scaleOr(hf.IntraScale) == 1 {
			return nil, fmt.Errorf("mesh: faulted: host fault on host %d degrades nothing", hf.Host)
		}
		f.nicScale[hf.Host] = scaleOr(hf.NICScale)
		f.intraScale[hf.Host] = scaleOr(hf.IntraScale)
	}
	for _, lf := range fs.Links {
		if lf.A < 0 || lf.A >= hosts || lf.B < 0 || lf.B >= hosts {
			return nil, fmt.Errorf("mesh: faulted: link fault %d-%d outside the %d-host topology", lf.A, lf.B, hosts)
		}
		if lf.A == lf.B {
			return nil, fmt.Errorf("mesh: faulted: link fault %d-%d is not an inter-host link", lf.A, lf.B)
		}
		if _, dup := f.links[pairKey(lf.A, lf.B)]; dup {
			return nil, fmt.Errorf("mesh: faulted: duplicate fault for link %d-%d", lf.A, lf.B)
		}
		ov := &linkOverlay{down: lf.Down, scale: scaleOr(lf.BandwidthScale), extraLat: lf.ExtraLatency}
		if lf.Down {
			if lf.BandwidthScale != 0 || lf.ExtraLatency != 0 {
				return nil, fmt.Errorf("mesh: faulted: down link %d-%d cannot also scale bandwidth or latency", lf.A, lf.B)
			}
		} else {
			if !validScale(lf.BandwidthScale) {
				return nil, fmt.Errorf("mesh: faulted: link %d-%d bandwidth scale %g must be in (0,1]", lf.A, lf.B, lf.BandwidthScale)
			}
			if math.IsNaN(lf.ExtraLatency) || math.IsInf(lf.ExtraLatency, 0) || lf.ExtraLatency < 0 {
				return nil, fmt.Errorf("mesh: faulted: link %d-%d extra latency %g must be finite and non-negative", lf.A, lf.B, lf.ExtraLatency)
			}
			if scaleOr(lf.BandwidthScale) == 1 && lf.ExtraLatency == 0 {
				return nil, fmt.Errorf("mesh: faulted: link fault %d-%d degrades nothing", lf.A, lf.B)
			}
		}
		f.links[pairKey(lf.A, lf.B)] = ov
	}
	// Resolve every down link's detour now, so queries stay lock-free. The
	// relay is chosen deterministically: best surviving bandwidth, then
	// lowest added latency, then lowest host index.
	for _, lf := range fs.Links {
		if !lf.Down {
			continue
		}
		ov := f.links[pairKey(lf.A, lf.B)]
		for dir, pair := range [2][2]int{{lf.A, lf.B}, {lf.B, lf.A}} {
			src, dst := pair[0], pair[1]
			bestBW, bestLat, found := 0.0, 0.0, false
			for c := 0; c < hosts; c++ {
				if c == src || c == dst || f.linkDown(src, c) || f.linkDown(c, dst) {
					continue
				}
				bw := f.liveInterBandwidth(src, c)
				if b2 := f.liveInterBandwidth(c, dst); b2 < bw {
					bw = b2
				}
				lat := f.liveInterLatency(src, c) + f.liveInterLatency(c, dst)
				if !found || bw > bestBW || bw == bestBW && lat < bestLat {
					bestBW, bestLat, found = bw, lat, true
				}
			}
			if !found {
				return nil, fmt.Errorf("mesh: faulted: down link %d-%d leaves hosts %d and %d with no live detour", lf.A, lf.B, src, dst)
			}
			// The detour can never beat the direct link it replaces: cap
			// its bandwidth at the (straggler-scaled) direct value and
			// floor its latency there, keeping degradations monotone on
			// any base topology.
			if direct := f.liveInterBandwidth(src, dst); direct < bestBW {
				bestBW = direct
			}
			if direct := f.base.InterLatency(src, dst); direct > bestLat {
				bestLat = direct
			}
			ov.detourBW[dir] = bestBW
			ov.detourLat[dir] = bestLat
		}
	}
	return f, nil
}

// MustFaulted is NewFaulted that panics on error; for fault sets valid by
// construction (e.g. registry scenarios on their intended presets).
func MustFaulted(base Topology, fs FaultSet) *Faulted {
	f, err := NewFaulted(base, fs)
	if err != nil {
		panic(err)
	}
	return f
}

// Base returns the wrapped topology.
func (f *Faulted) Base() Topology { return f.base }

// Faults returns the normalized fault set.
func (f *Faulted) Faults() FaultSet { return f.fs }

// linkDown reports whether the direct link between two hosts is down.
func (f *Faulted) linkDown(a, b int) bool {
	ov, ok := f.links[pairKey(a, b)]
	return ok && ov.down
}

// liveInterBandwidth is the degraded direct bandwidth of a link treated
// as up: base bandwidth times the link's scale times the slower
// endpoint's straggler NIC scale.
func (f *Faulted) liveInterBandwidth(src, dst int) float64 {
	bw := f.base.InterBandwidth(src, dst)
	if ov, ok := f.links[pairKey(src, dst)]; ok && !ov.down {
		bw *= ov.scale
	}
	if s := minScale(f.nicScale[src], f.nicScale[dst]); s < 1 {
		bw *= s
	}
	return bw
}

// liveInterLatency is the degraded direct latency of a link treated as up.
func (f *Faulted) liveInterLatency(src, dst int) float64 {
	lat := f.base.InterLatency(src, dst)
	if ov, ok := f.links[pairKey(src, dst)]; ok && !ov.down {
		lat += ov.extraLat
	}
	return lat
}

// Topology interface implementation: structural queries delegate to the
// base untouched (the overlay degrades timing, never shape), bandwidth
// and latency queries apply the overlay.

// HostCount returns the base host count.
func (f *Faulted) HostCount() int { return f.base.HostCount() }

// NumDevices returns the base device count.
func (f *Faulted) NumDevices() int { return f.base.NumDevices() }

// HostOf returns the host owning a device.
func (f *Faulted) HostOf(device int) int { return f.base.HostOf(device) }

// DevicesOnHost returns the device indices of one host.
func (f *Faulted) DevicesOnHost(host int) []int { return f.base.DevicesOnHost(host) }

// HostDevices returns the first device index and device count of one host.
func (f *Faulted) HostDevices(host int) (first, n int) { return f.base.HostDevices(host) }

// ValidDevice reports whether the device index exists.
func (f *Faulted) ValidDevice(device int) bool { return f.base.ValidDevice(device) }

// IntraBandwidth is the base intra-host bandwidth times the host's
// straggler intra scale.
func (f *Faulted) IntraBandwidth(host int) float64 {
	return f.base.IntraBandwidth(host) * f.intraScale[host]
}

// IntraLatency returns the base intra-host latency (the overlay does not
// inflate intra-host latency).
func (f *Faulted) IntraLatency(host int) float64 { return f.base.IntraLatency(host) }

// NICBandwidth is the base NIC bandwidth times the host's straggler NIC
// scale.
func (f *Faulted) NICBandwidth(host int) float64 {
	return f.base.NICBandwidth(host) * f.nicScale[host]
}

// NICCount returns the base NIC count (faults degrade NICs, they do not
// remove them).
func (f *Faulted) NICCount(host int) int { return f.base.NICCount(host) }

// InterBandwidth is the degraded point-to-point bandwidth: the base value
// times the link's bandwidth scale and the slower endpoint's straggler
// NIC scale — or, for a down link, the precomputed two-hop detour.
func (f *Faulted) InterBandwidth(srcHost, dstHost int) float64 {
	if ov, ok := f.links[pairKey(srcHost, dstHost)]; ok && ov.down {
		return ov.detourBW[detourDir(srcHost, dstHost)]
	}
	bw := f.base.InterBandwidth(srcHost, dstHost)
	if ov, ok := f.links[pairKey(srcHost, dstHost)]; ok {
		bw *= ov.scale
	}
	if s := minScale(f.nicScale[srcHost], f.nicScale[dstHost]); s < 1 {
		bw *= s
	}
	return bw
}

// InterLatency is the degraded cross-host latency: base plus the link's
// extra latency — or, for a down link, the precomputed detour latency.
func (f *Faulted) InterLatency(srcHost, dstHost int) float64 {
	if ov, ok := f.links[pairKey(srcHost, dstHost)]; ok {
		if ov.down {
			return ov.detourLat[detourDir(srcHost, dstHost)]
		}
		return f.base.InterLatency(srcHost, dstHost) + ov.extraLat
	}
	return f.base.InterLatency(srcHost, dstHost)
}

// detourDir selects which precomputed direction a query uses: 0 for
// (min, max) order, 1 for the reverse.
func detourDir(src, dst int) int {
	if src < dst {
		return 0
	}
	return 1
}

func minScale(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// Slice carves a row-major mesh out of a contiguous device run; the mesh
// is bound to the faulted topology, so everything planned on it sees the
// degraded fabric.
func (f *Faulted) Slice(shape []int, firstDevice int) (*Mesh, error) {
	return sliceTopology(f, shape, firstDevice)
}

// Fingerprint folds the fault set into the base identity, partitioning
// every fingerprint-keyed structure (SameTopology, topology-pinned
// sessions, served-topology memos) between healthy and degraded. An empty
// overlay returns the base fingerprint unchanged — the identity the
// golden tests pin down.
func (f *Faulted) Fingerprint() string {
	if f.fs.Empty() {
		return f.base.Fingerprint()
	}
	return "faulted(" + f.base.Fingerprint() + "|" + f.fs.Canonical() + ")"
}

func (f *Faulted) String() string {
	if f.fs.Empty() {
		return f.base.String()
	}
	return fmt.Sprintf("faulted(%v, %d link faults, %d straggler hosts)",
		f.base, len(f.fs.Links), len(f.fs.Hosts))
}

// ParseFaultSet parses the compact fault notation shared by the CLIs:
// semicolon-separated clauses, each either a link or a host fault.
//
//	link:0-1:down                  the 0-1 link is down (traffic detours)
//	link:0-2:bw=0.5                half the 0-2 link's bandwidth
//	link:0-2:bw=0.5,lat+=20e-6     ... and add 20us latency
//	host:3:nic=0.25                host 3's NIC runs at a quarter speed
//	host:3:nic=0.25,intra=0.5      ... and NVLink at half
//
// Example: "link:0-1:down;host:3:nic=0.25,intra=0.5". Validation against
// a concrete topology (host ranges, detour existence) happens at
// NewFaulted.
func ParseFaultSet(s string) (FaultSet, error) {
	var fs FaultSet
	for _, clause := range strings.Split(s, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		parts := strings.SplitN(clause, ":", 3)
		if len(parts) != 3 {
			return fs, fmt.Errorf("mesh: fault clause %q must look like link:A-B:... or host:H:...", clause)
		}
		switch parts[0] {
		case "link":
			ab := strings.SplitN(parts[1], "-", 2)
			if len(ab) != 2 {
				return fs, fmt.Errorf("mesh: fault clause %q: link endpoints must look like A-B", clause)
			}
			a, errA := strconv.Atoi(ab[0])
			b, errB := strconv.Atoi(ab[1])
			if errA != nil || errB != nil {
				return fs, fmt.Errorf("mesh: fault clause %q: bad link endpoints", clause)
			}
			lf := LinkFault{A: a, B: b}
			for _, kv := range strings.Split(parts[2], ",") {
				switch {
				case kv == "down":
					lf.Down = true
				case strings.HasPrefix(kv, "bw="):
					v, err := strconv.ParseFloat(kv[len("bw="):], 64)
					if err != nil {
						return fs, fmt.Errorf("mesh: fault clause %q: bad bandwidth scale: %v", clause, err)
					}
					lf.BandwidthScale = v
				case strings.HasPrefix(kv, "lat+="):
					v, err := strconv.ParseFloat(kv[len("lat+="):], 64)
					if err != nil {
						return fs, fmt.Errorf("mesh: fault clause %q: bad extra latency: %v", clause, err)
					}
					lf.ExtraLatency = v
				default:
					return fs, fmt.Errorf("mesh: fault clause %q: unknown link field %q (want down, bw=, lat+=)", clause, kv)
				}
			}
			fs.Links = append(fs.Links, lf)
		case "host":
			h, err := strconv.Atoi(parts[1])
			if err != nil {
				return fs, fmt.Errorf("mesh: fault clause %q: bad host index", clause)
			}
			hf := HostFault{Host: h}
			for _, kv := range strings.Split(parts[2], ",") {
				switch {
				case strings.HasPrefix(kv, "nic="):
					v, err := strconv.ParseFloat(kv[len("nic="):], 64)
					if err != nil {
						return fs, fmt.Errorf("mesh: fault clause %q: bad nic scale: %v", clause, err)
					}
					hf.NICScale = v
				case strings.HasPrefix(kv, "intra="):
					v, err := strconv.ParseFloat(kv[len("intra="):], 64)
					if err != nil {
						return fs, fmt.Errorf("mesh: fault clause %q: bad intra scale: %v", clause, err)
					}
					hf.IntraScale = v
				default:
					return fs, fmt.Errorf("mesh: fault clause %q: unknown host field %q (want nic=, intra=)", clause, kv)
				}
			}
			fs.Hosts = append(fs.Hosts, hf)
		default:
			return fs, fmt.Errorf("mesh: fault clause %q: unknown kind %q (want link or host)", clause, parts[0])
		}
	}
	return fs, nil
}
