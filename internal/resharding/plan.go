package resharding

import (
	"context"
	"fmt"
	"math/rand"
	"slices"

	"alpacomm/internal/mesh"
	"alpacomm/internal/schedule"
	"alpacomm/internal/sharding"
)

// Plan is a scheduled cross-mesh resharding: for every unit task, a chosen
// sender device, and a global launch order.
type Plan struct {
	Task *sharding.Task
	Opts Options
	// SenderOf maps unit-task index to the chosen sender device.
	SenderOf map[int]int
	// Order lists unit-task indices in launch order.
	Order []int
	// HostPlan is the host-level schedule the plan was derived from.
	HostPlan schedule.Plan
	// HostTasks is the Eq. 1-3 problem instance (one entry per unit task).
	HostTasks []schedule.Task
	// Report is how the ensemble scheduler ended: the candidate the plan
	// came from, whether it met the floor, and the search's node and trial
	// counts. Other schedulers leave it zero (Exit none), as does a plan
	// filled from a peer.
	Report schedule.Report
}

// NewPlan schedules a resharding task under the given options. It cannot
// be interrupted; long searches should go through NewPlanContext (or a
// Planner session, which threads its context everywhere).
func NewPlan(task *sharding.Task, opts Options) (*Plan, error) {
	return NewPlanContext(context.Background(), task, opts)
}

// NewPlanContext is NewPlan with cooperative cancellation: the context is
// checked on entry and polled between the ensemble DFS's node-budget
// slices, so cancelling aborts a heavy search within one slice's worth of
// work and returns ctx.Err(). A context that never fires yields a plan
// bit-identical to NewPlan's. It is NewDraft then Draft.Plan: one path.
func NewPlanContext(ctx context.Context, task *sharding.Task, opts Options) (*Plan, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	d, err := NewDraft(task, opts)
	if err != nil {
		return nil, err
	}
	return d.Plan(ctx)
}

// Draft is a resharding planned as far as closed forms go: the host-level
// instance, built once, and — under the ensemble scheduler — the incumbent
// Naive, LoadBalanceOnly and the witness left (schedule.ClosedForm), built on
// the first Proven or Plan, so a replan that reuses its incumbent never pays
// for it. It costs microseconds and tells a caller whether finishing the plan
// means a search, so work worth sharing or queueing can be told from work
// that is not. A Draft is not safe for concurrent use.
type Draft struct {
	task      *sharding.Task
	opts      Options
	hostTasks []schedule.Task
	closed    schedule.Incumbent // SchedEnsemble only, once hasClosed
	hasClosed bool
}

// NewDraft drafts the plan of (task, opts); Plan on the result returns what
// NewPlanContext returns for them.
func NewDraft(task *sharding.Task, opts Options) (Draft, error) {
	opts = opts.WithDefaults()
	if !mesh.SameTopology(task.Src.Mesh.Topo, task.Dst.Mesh.Topo) {
		return Draft{}, fmt.Errorf("resharding: source and destination meshes must share a topology")
	}
	return Draft{task: task, opts: opts, hostTasks: buildHostTasks(task, opts)}, nil
}

// closedForm returns the ensemble's closed-form incumbent, building it on
// first use.
func (d *Draft) closedForm() *schedule.Incumbent {
	if !d.hasClosed {
		d.closed, d.hasClosed = schedule.ClosedForm(d.hostTasks), true
	}
	return &d.closed
}

// Proven reports whether Plan will return without searching: the closed-form
// candidates met the makespan lower bound, or the scheduler (degraded mode
// included) is itself one. Ask before Plan: a search can prove its own result.
func (d *Draft) Proven() bool {
	return d.opts.Scheduler != SchedEnsemble || d.closedForm().Proven()
}

// Plan finishes the draft: the search left to do, if any, then device senders.
func (d *Draft) Plan(ctx context.Context) (*Plan, error) {
	task, opts, hostTasks := d.task, d.opts, d.hostTasks
	var hostPlan schedule.Plan
	var report schedule.Report
	switch opts.Scheduler {
	case SchedNaive:
		hostPlan = schedule.Naive(hostTasks)
	case SchedGreedyLoad:
		hostPlan = schedule.GreedyLoad(hostTasks)
	case SchedLoadBalanceOnly:
		hostPlan = schedule.LoadBalanceOnly(hostTasks)
	case SchedDegraded:
		hostPlan = schedule.GreedyEnsemble(hostTasks)
	case SchedEnsemble:
		stop := func() bool { return ctx.Err() != nil }
		in := d.closedForm()
		hostPlan = in.Search(opts.DFSNodes, opts.Trials, ensembleRand(opts.Seed), stop)
		report = in.Report()
	default:
		return nil, fmt.Errorf("resharding: unknown scheduler %v", opts.Scheduler)
	}
	if err := ctx.Err(); err != nil {
		// The DFS yielded its incumbent early; a cancelled plan must not
		// look like a successful one.
		return nil, err
	}
	if err := schedule.Validate(hostTasks, hostPlan); err != nil {
		return nil, fmt.Errorf("resharding: scheduler produced invalid plan: %v", err)
	}

	senderOf, err := resolveDeviceSenders(task, hostPlan)
	if err != nil {
		return nil, err
	}
	return &Plan{
		Task:      task,
		Opts:      opts,
		SenderOf:  senderOf,
		Order:     hostPlan.Order,
		HostPlan:  hostPlan,
		HostTasks: hostTasks,
		Report:    report,
	}, nil
}

// lazySource draws the stream of rand.NewSource(seed), which it builds on
// the first draw: seeding fills a 607-word state, and an ensemble that ends
// at a closed form (Naive, LoadBalanceOnly or the witness) never draws.
type lazySource struct {
	seed int64
	src  rand.Source64
}

func (s *lazySource) seeded() rand.Source64 {
	if s.src == nil {
		s.src = rand.NewSource(s.seed).(rand.Source64)
	}
	return s.src
}

func (s *lazySource) Int63() int64   { return s.seeded().Int63() }
func (s *lazySource) Uint64() uint64 { return s.seeded().Uint64() }

func (s *lazySource) Seed(seed int64) { s.seed, s.src = seed, nil }

// ensembleRand is the generator handed to the ensemble scheduler: draw for
// draw rand.New(rand.NewSource(seed)).
func ensembleRand(seed int64) *rand.Rand {
	return rand.New(&lazySource{seed: seed})
}

// buildHostTasks builds the host-level Eq. 1-3 instance of a resharding.
// Task durations estimate the strategy's cross-host cost: one copy per
// receiver host for SendRecv, one copy total for the gather/broadcast
// strategies. On heterogeneous topologies the copy is costed at the
// slowest NIC among the hosts the task can touch, the bandwidth it
// bottlenecks on. Because durations depend only on per-host NIC bandwidth
// (plus inter-host latency for Signal), overlays that degrade only links
// leave the instance unchanged — the property the warm replanner exploits
// to skip the search entirely.
func buildHostTasks(task *sharding.Task, opts Options) []schedule.Task {
	cluster := task.Src.Mesh.Topo
	// Every unit's sender and receiver hosts share one array, counted first.
	n := 0
	for _, u := range task.Units {
		n += sharding.CountHosts(cluster, u.Senders) + sharding.CountHosts(cluster, u.Receivers)
	}
	hosts := make([]int, 0, n)
	hostTasks := make([]schedule.Task, len(task.Units))
	for i, u := range task.Units {
		hostTasks[i], hosts = unitHostTask(task, opts, u, hosts)
	}
	return hostTasks
}

// unitHostTask builds one unit's host task, appending its sender hosts and
// then its receiver hosts to hosts, and returns the task, whose host lists
// are those windows of hosts, and the grown hosts.
func unitHostTask(task *sharding.Task, opts Options, u sharding.UnitTask, hosts []int) (schedule.Task, []int) {
	cluster := task.Src.Mesh.Topo
	bytes := float64(u.Bytes(task.DType))
	from := len(hosts)
	hosts = sharding.AppendHosts(hosts, cluster, u.Senders)
	senderHosts := hosts[from:len(hosts):len(hosts)]
	from = len(hosts)
	hosts = sharding.AppendHosts(hosts, cluster, u.Receivers)
	recvHosts := hosts[from:len(hosts):len(hosts)]
	dur := bytes / minNICBandwidth(cluster, senderHosts, recvHosts)
	if opts.Strategy == SendRecv {
		dur *= float64(len(u.Receivers))
	}
	if opts.Strategy == Signal {
		dur = maxInterLatency(cluster, senderHosts, recvHosts)
	}
	return schedule.Task{
		ID:            u.Index,
		SenderHosts:   senderHosts,
		ReceiverHosts: recvHosts,
		Duration:      dur,
	}, hosts
}

// resolveDeviceSenders maps a host-level schedule onto concrete sender
// devices, spreading intra-host load round-robin over the replicas
// available on each chosen host (in launch order, so the assignment is a
// pure function of the host plan).
func resolveDeviceSenders(task *sharding.Task, hostPlan schedule.Plan) (map[int]int, error) {
	cluster := task.Src.Mesh.Topo
	senderOf := make(map[int]int, len(hostPlan.Order))
	perHostCount := make([]int, cluster.HostCount())
	for _, idx := range hostPlan.Order {
		u := task.Units[idx]
		host := hostPlan.Sender[idx]
		// The unit's senders are ascending, so those on the host are the run
		// of them inside the host's device run.
		var onHost []int
		if host >= 0 && host < len(perHostCount) {
			first, n := cluster.HostDevices(host)
			lo, _ := slices.BinarySearch(u.Senders, first)
			hi, _ := slices.BinarySearch(u.Senders, first+n)
			onHost = u.Senders[lo:hi]
		}
		if len(onHost) == 0 {
			return nil, fmt.Errorf("resharding: unit %d has no sender on chosen host %d", idx, host)
		}
		dev := onHost[perHostCount[host]%len(onHost)]
		perHostCount[host]++
		senderOf[idx] = dev
	}
	return senderOf, nil
}

// minNICBandwidth returns the slowest per-NIC bandwidth among the hosts a
// unit task can touch — the rate its cross-host copy bottlenecks on. On
// homogeneous clusters this is simply the uniform NIC bandwidth.
func minNICBandwidth(t mesh.Topology, senderHosts, recvHosts []int) float64 {
	min := 0.0
	for _, hosts := range [][]int{senderHosts, recvHosts} {
		for _, h := range hosts {
			if bw := t.NICBandwidth(h); min == 0 || bw < min {
				min = bw
			}
		}
	}
	return min
}

// maxInterLatency returns the worst cross-host latency among (sender,
// receiver) host pairs; the Signal strategy's unit cost.
func maxInterLatency(t mesh.Topology, senderHosts, recvHosts []int) float64 {
	max := 0.0
	for _, s := range senderHosts {
		for _, r := range recvHosts {
			if l := t.InterLatency(s, r); l > max {
				max = l
			}
		}
	}
	return max
}

// HostMakespan returns the Eq. 1-3 objective value of the host-level plan,
// before chunk-level simulation.
func (p *Plan) HostMakespan() (float64, error) {
	return schedule.Makespan(p.HostTasks, p.HostPlan)
}

func (p *Plan) String() string {
	return fmt.Sprintf("plan(%s, %s, %d units)", p.Opts.Strategy, p.Opts.Scheduler, len(p.Task.Units))
}
