package harness

import "alpacomm/internal/netsim"

// NetsimReplayTransfers issues the engine-contention workload shared by
// the repository's BenchmarkNetsim and bench/'s netsim.replay_us metric:
// 1000 cross-host transfers contending for the 8 NIC directions of a
// 4-host p3 cluster (the net must be over a 16-device topology).
func NetsimReplayTransfers(net *netsim.ClusterNet) error {
	topo := net.Topo
	for j := 0; j < 1000; j++ {
		src := j % 15
		dst := (j + 1) % 16
		if topo.HostOf(src) == topo.HostOf(dst) {
			dst = (dst + 4) % 16
		}
		if _, err := net.Transfer(netsim.Plain("t"), src, dst, 1<<20, j); err != nil {
			return err
		}
	}
	return nil
}
