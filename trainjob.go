package alpacomm

import (
	"context"
	"fmt"

	"alpacomm/internal/model"
	"alpacomm/internal/pipeline"
	"alpacomm/internal/sharding"
)

// TrainingJob assembles the full §5.2 end-to-end experiment: a workload
// partitioned over pipeline-stage meshes sliced from a cluster, a
// communication configuration for the cross-mesh resharding at every stage
// boundary, and a pipeline schedule.
type TrainingJob struct {
	// Cluster is the hardware topology to run on; must hold
	// Parallel.TotalDevices() devices. Any Topology works: a HeteroCluster
	// (AWSP3Cluster for the paper's testbed) or a Faulted overlay of one.
	Cluster Topology
	// Device is the accelerator throughput model.
	Device DeviceSpec
	// Workload is the partitioned model.
	Workload *Workload
	// Parallel is the (dp, op, pp) configuration; dp·op devices per stage.
	Parallel ParallelConfig
	// Schedule is the pipeline schedule to run.
	Schedule PipelineKind
	// Overlap enables communication/computation overlapping (§4).
	Overlap bool
	// SplitBackward enables backward weight delaying (§4).
	SplitBackward bool
	// Reshard configures the boundary communication (§3).
	Reshard ReshardOptions
	// Planner is the planning session every boundary plans through: its
	// caches collapse congruent boundaries (and, when shared across jobs,
	// congruent jobs) to one computation, and its context plumbing makes
	// RunContext cancellable mid-search. Structurally identical stage
	// boundaries (the common case: every GPT boundary reshards the same
	// tensor between congruent meshes) plan once and share the timing. Nil
	// means each run plans through a private session pinned to Cluster;
	// share one session (or one cache: NewPlanner(WithCache(c),
	// WithAutotuneCache(c))) across jobs to also reuse plans between runs
	// on congruent topologies.
	Planner *Planner
	// Autotune searches the full strategy x scheduler grid per distinct
	// boundary (deterministically, in parallel) instead of using Reshard's
	// fixed Strategy/Scheduler.
	Autotune bool
}

// TrainingReport is the outcome of one simulated training iteration.
type TrainingReport struct {
	// IterationTime is the simulated wall-clock of one iteration, seconds.
	IterationTime float64
	// TFLOPS is the paper's throughput metric: aggregated model FLOPs per
	// second across the whole cluster, in TFLOPS (Fig. 7's y-axis).
	TFLOPS float64
	// PerGPUTFLOPS is TFLOPS divided by the device count.
	PerGPUTFLOPS float64
	// FwdCommTime[s] is the simulated resharding time of boundary s per
	// micro-batch (forward direction).
	FwdCommTime []float64
	// PeakActivations[s] is the schedule's per-stage activation memory in
	// micro-batches.
	PeakActivations []int
	// Pipeline is the underlying pipeline simulation.
	Pipeline *PipelineResult
	// StageMeshes are the device meshes assigned to each stage.
	StageMeshes []*Mesh
}

// StageMeshes slices one (dp, op) mesh per pipeline stage out of the
// cluster, stages occupying consecutive device ranges (stage 0 on the
// first dp·op devices, and so on — Alpa's mesh slicing).
func (j *TrainingJob) StageMeshes() ([]*Mesh, error) {
	pc := j.Parallel
	if !pc.Valid() {
		return nil, fmt.Errorf("alpacomm: invalid parallel config %+v", pc)
	}
	if pc.TotalDevices() > j.Cluster.NumDevices() {
		return nil, fmt.Errorf("alpacomm: config needs %d devices, cluster has %d", pc.TotalDevices(), j.Cluster.NumDevices())
	}
	meshes := make([]*Mesh, pc.PP)
	for s := 0; s < pc.PP; s++ {
		m, err := j.Cluster.Slice([]int{pc.DP, pc.OP}, s*pc.DevicesPerStage())
		if err != nil {
			return nil, err
		}
		meshes[s] = m
	}
	return meshes, nil
}

// boundaryTask decomposes one workload boundary tensor into a resharding
// task between its stage meshes.
func (j *TrainingJob) boundaryTask(meshes []*Mesh, bt model.BoundaryTensor) (*ReshardTask, error) {
	srcSpec, err := sharding.Parse(bt.SrcSpec)
	if err != nil {
		return nil, err
	}
	dstSpec, err := sharding.Parse(bt.DstSpec)
	if err != nil {
		return nil, err
	}
	task, err := sharding.NewTask(bt.Shape, j.Workload.DType, meshes[bt.Boundary], srcSpec, meshes[bt.Boundary+1], dstSpec)
	if err != nil {
		return nil, fmt.Errorf("alpacomm: boundary %d tensor %q: %v", bt.Boundary, bt.Name, err)
	}
	return task, nil
}

// boundaryCommTime plans and simulates the resharding of every tensor
// crossing boundary s (stage s -> s+1) through the session and returns the
// summed makespan per micro-batch. Plans come from the session cache, so
// boundaries that reshard the same tensor between congruent meshes are
// planned once.
func (j *TrainingJob) boundaryCommTime(ctx context.Context, p *Planner, meshes []*Mesh, s int) (float64, error) {
	var total float64
	for _, bt := range j.Workload.Boundaries {
		if bt.Boundary != s {
			continue
		}
		task, err := j.boundaryTask(meshes, bt)
		if err != nil {
			return 0, err
		}
		if j.Autotune {
			res, err := p.Autotune(ctx, task, j.Reshard)
			if err != nil {
				return 0, err
			}
			total += res.BestSim.Makespan
			continue
		}
		sim, err := p.Simulate(ctx, task, j.Reshard)
		if err != nil {
			return 0, err
		}
		total += sim.Makespan
	}
	return total, nil
}

// Run simulates one training iteration and reports throughput. It cannot
// be interrupted; long autotuned runs should use RunContext.
func (j *TrainingJob) Run() (*TrainingReport, error) {
	return j.RunContext(context.Background())
}

// RunContext is Run with cooperative cancellation threaded through every
// boundary's planning and autotuning, so a deadline aborts a deep job's
// grid searches mid-candidate instead of riding them out.
func (j *TrainingJob) RunContext(ctx context.Context) (*TrainingReport, error) {
	if j.Workload == nil {
		return nil, fmt.Errorf("alpacomm: nil workload")
	}
	if err := j.Workload.Validate(); err != nil {
		return nil, err
	}
	pc := j.Parallel
	if len(j.Workload.Stages) != pc.PP {
		return nil, fmt.Errorf("alpacomm: workload has %d stages but pp=%d", len(j.Workload.Stages), pc.PP)
	}
	meshes, err := j.StageMeshes()
	if err != nil {
		return nil, err
	}

	// Per-stage compute time: the stage processes dp·microBatch samples on
	// dp·op devices, i.e. the per-replica FLOPs spread over op devices.
	eff := j.Device.Effective(j.Workload.DType)
	fwd := make([]float64, pc.PP)
	bwd := make([]float64, pc.PP)
	for s, st := range j.Workload.Stages {
		fwd[s] = st.FlopsFwd / (float64(pc.OP) * eff)
		bwd[s] = st.FlopsBwd / (float64(pc.OP) * eff)
	}

	// Per-boundary communication from simulated resharding plans. The
	// backward gradient has the same shape; reuse the forward time.
	planner := j.Planner
	if planner == nil {
		planner = NewPlanner(WithTopology(j.Cluster), WithDefaultPlanOptions(j.Reshard))
	}
	comm := make([]float64, pc.PP-1)
	for s := 0; s < pc.PP-1; s++ {
		c, err := j.boundaryCommTime(ctx, planner, meshes, s)
		if err != nil {
			return nil, err
		}
		comm[s] = c
	}

	cfg := pipeline.Config{
		Stages:        pc.PP,
		MicroBatches:  j.Workload.NumMicroBatches,
		Schedule:      j.Schedule,
		FwdTime:       fwd,
		BwdTime:       bwd,
		Overlap:       j.Overlap,
		SplitBackward: j.SplitBackward,
	}
	if pc.PP > 1 {
		cfg.FwdCommTime = comm
	}
	pres, err := pipeline.Simulate(cfg)
	if err != nil {
		return nil, err
	}

	// Aggregated throughput: model FLOPs across all dp replicas per
	// iteration, divided by iteration time.
	totalFlops := j.Workload.TotalFlopsPerIteration() * float64(pc.DP)
	report := &TrainingReport{
		IterationTime:   pres.Makespan,
		TFLOPS:          totalFlops / pres.Makespan / 1e12,
		FwdCommTime:     comm,
		PeakActivations: pres.PeakActivations,
		Pipeline:        pres,
		StageMeshes:     meshes,
	}
	report.PerGPUTFLOPS = report.TFLOPS / float64(pc.TotalDevices())
	return report, nil
}

// GPTLayerMemory evaluates the paper's Table 1 memory formulas.
var GPTLayerMemory = model.GPTLayerMemory

// EagerMemoryIncreaseBytes bounds eager-1F1B's extra activation memory.
var EagerMemoryIncreaseBytes = model.EagerMemoryIncreaseBytes
