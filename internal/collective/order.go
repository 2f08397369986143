package collective

import (
	"cmp"
	"slices"
	"sort"

	"alpacomm/internal/mesh"
)

// BroadcastOrder arranges a sender and its receivers into the chain the
// paper's broadcast strategy uses: receivers on the sender's own host come
// first (data rides NVLink), then each remaining host's receivers
// consecutively in ascending host order — so every receiving host's NIC
// receives exactly one copy of the message.
func BroadcastOrder(c mesh.Topology, sender int, receivers []int) []int {
	return AppendBroadcastOrder(make([]int, 0, 1+len(receivers)), c, sender, receivers)
}

// AppendBroadcastOrder appends BroadcastOrder's chain to dst, allocating
// nothing when dst has room.
//
//alpacomm:hotpath
func AppendBroadcastOrder(dst []int, c mesh.Topology, sender int, receivers []int) []int {
	dst = append(dst, sender)
	at := len(dst)
	dst = append(dst, receivers...)
	senderHost := c.HostOf(sender)
	//alpacomm:allow hotalloc the comparator does not outlive SortFunc, so it stays on the stack
	slices.SortFunc(dst[at:], func(a, b int) int {
		ha, hb := c.HostOf(a), c.HostOf(b)
		if ha != hb {
			if ha == senderHost {
				return -1
			}
			if hb == senderHost {
				return 1
			}
			return cmp.Compare(ha, hb)
		}
		return cmp.Compare(a, b)
	})
	return dst
}

// RingOrder arranges devices into a ring that crosses host boundaries as
// few times as possible: devices grouped by host, hosts ascending. This is
// the standard NCCL ring layout for hierarchical clusters.
func RingOrder(c mesh.Topology, devices []int) []int {
	byHost := map[int][]int{}
	for _, d := range devices {
		h := c.HostOf(d)
		byHost[h] = append(byHost[h], d)
	}
	var hosts []int
	for h := range byHost {
		hosts = append(hosts, h)
	}
	sort.Ints(hosts)
	out := make([]int, 0, len(devices))
	for _, h := range hosts {
		devs := byHost[h]
		sort.Ints(devs)
		out = append(out, devs...)
	}
	return out
}
