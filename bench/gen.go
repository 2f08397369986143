package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"alpacomm/internal/mesh"
	"alpacomm/internal/model"
	"alpacomm/internal/resharding"
	"alpacomm/internal/service"
	"alpacomm/internal/sharding"
	"alpacomm/internal/tensor"
)

// problem is one planning problem in wire form, plus what validation at
// set-up learned about it. The program under test only ever sees Req.
type problem struct {
	Req service.PlanRequest
	// Key is the canonical cache key the server derives for Req.
	Key string
	// Task and Opts are the parsed form, kept for output verification and
	// the staged (traced) calls; the workloads never hand them to the
	// program.
	Task *sharding.Task
	Opts resharding.Options
	// Structure is the structure-deck card the problem was drawn with; -1
	// for the paper's problems.
	Structure int
}

// generator draws valid, pairwise-distinct planning problems from one seed.
// Every draw is parsed by a throwaway server, so a request that the program
// would refuse (a mesh that does not fit, link-down on a 2-host topology)
// is rejected here and never reaches a workload.
type generator struct {
	rng  *rand.Rand
	reg  *mesh.Registry
	srv  *service.Server
	seen map[string]bool
	// rejected counts draws refused by validation, by reason.
	rejected map[string]int
	n        int
	decks    map[string]*deck
	// cards are the structure cards draws are dealt from: the whole deck,
	// unless a workload narrows it to sampleCards.
	cards []int
}

func newGenerator(seed uint64) *generator {
	return &generator{
		rng:      rand.New(rand.NewSource(int64(seed))),
		reg:      mesh.DefaultRegistry(),
		srv:      service.New(service.Config{}),
		seen:     map[string]bool{},
		rejected: map[string]int{},
		decks:    map[string]*deck{},
		cards:    cardRank, // a permutation: every card once
	}
}

// deck deals the integers 0..n-1 in shuffled order and reshuffles when it
// runs out, so every option is used equally often over a long draw. The
// aggregate cost of a request set then depends little on the seed, which
// is what lets two seeds be compared at all.
type deck struct {
	cards []int
	next  int
}

func (g *generator) deal(name string, n int) int {
	d := g.decks[name]
	if d == nil {
		d = &deck{cards: make([]int, n), next: n}
		for i := range d.cards {
			d.cards[i] = i
		}
		g.decks[name] = d
	}
	if d.next == len(d.cards) {
		g.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
		d.next = 0
	}
	c := d.cards[d.next]
	d.next++
	return c
}

// The axes the seeded draws vary.
var (
	meshPairs = [][2][]int{
		{{2, 2}, {2, 2}},
		{{2, 4}, {2, 4}},
		{{1, 4}, {2, 4}},
		{{2, 3}, {3, 2}},
	}
	// variants are the topologies drawn from: each registry preset at a
	// 2-3 host and a larger size. The last holds every mesh pair.
	variants = []struct {
		name  string
		hosts int
	}{
		{mesh.TopologyP3, 3},
		{mesh.TopologyDGXA100, 2},
		{mesh.TopologyMixed, 3},
		{mesh.TopologyDGXA100, 3},
		{mesh.TopologyMixed, 4},
		{mesh.TopologyP3, 5},
	}
	oversubs    = []float64{1, 1.5, 2}
	specsByRank = map[int][]string{
		2: {"RR", "S0R", "RS0", "S1R", "RS1", "S01R", "RS01", "S0S1", "S1S0"},
		3: {"RRR", "S0RR", "RS0R", "RRS0", "S1RR", "RS1R", "S01RR", "RS01R", "S0S1R"},
	}
	// Extents divisible by every shard degree the mesh pairs allow (2..8
	// and 6), so no draw needs uneven tiles unless a Table 2 case asks.
	extents      = []int{48, 96, 192, 384, 768}
	innerExtents = []int{8, 24, 48}
	dtypes       = []string{"fp16", "fp32"}
	chunkChoices = []int{0, 8, 64}
)

// structureCombos is the size of the structure deck: mesh pairs x ranks x
// (nine specs per rank) squared x chunkings.
const structureCombos = 4 * 2 * 9 * 9 * 3

// cardRank is a fixed shuffle of the structure deck, a constant of the
// benchmark and not an input: cardRank[card] is the card's popularity rank
// in tier_zipf, and every third rank is in sampleCards.
var cardRank = rand.New(rand.NewSource(20230604)).Perm(structureCombos)

// sampleCards is a third of the structure deck, the same third at every
// seed: the workloads whose round plans every problem once (plan_cold,
// open_miss) draw from it, so that a round is short and a run has many.
func sampleCards() []int {
	var out []int
	for card, rank := range cardRank {
		if rank%3 == 0 {
			out = append(out, card)
		}
	}
	return out
}

// hottestCards are the n structure cards of lowest popularity rank, the same
// at every seed: serve_hit's few seeded keys draw from them, one card each,
// so that what its cache retains and its set-up plans does not ride on which
// ten of 1944 structures a seed happens to pick.
func hottestCards(n int) []int {
	out := make([]int, n)
	for card, rank := range cardRank {
		if rank < n {
			out[rank] = card
		}
	}
	return out
}

func meshString(shape []int, first int) string {
	s := ""
	for i, d := range shape {
		if i > 0 {
			s += "x"
		}
		s += fmt.Sprint(d)
	}
	return fmt.Sprintf("%s@%d", s, first)
}

func product(shape []int) int {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return n
}

// placeMeshes puts the source mesh at device 0 and the destination mesh at
// the first host boundary after it, so the resharding always crosses hosts.
// ok is false when the pair does not fit the topology.
func placeMeshes(topo mesh.Topology, src, dst []int) (srcMesh, dstMesh string, ok bool) {
	srcN, dstN := product(src), product(dst)
	if srcN > topo.NumDevices() {
		return "", "", false
	}
	h := topo.HostOf(srcN-1) + 1
	if h >= topo.HostCount() {
		return "", "", false
	}
	first := topo.DevicesOnHost(h)[0]
	if first+dstN > topo.NumDevices() {
		return "", "", false
	}
	return meshString(src, 0), meshString(dst, first), true
}

// admit validates one request and records it; it reports false (and counts
// the reason) when the program would refuse the request or the problem
// duplicates an earlier one.
func (g *generator) admit(req service.PlanRequest) (problem, bool) {
	task, opts, key, err := g.srv.ParsePlanRequest(context.Background(), &req)
	if err != nil {
		g.rejected["invalid"]++
		return problem{}, false
	}
	if g.seen[key] {
		g.rejected["duplicate"]++
		return problem{}, false
	}
	g.seen[key] = true
	return problem{Req: req, Key: key, Task: task, Opts: opts, Structure: -1}, true
}

// draw returns the next seeded problem. Structure, topology variant,
// extents, dtype and oversubscription each come from a deck of their own, so
// only their pairing is random.
func (g *generator) draw() problem {
	for {
		g.n++
		// One deck over mesh pair x rank x spec pair x chunking: together
		// these fix the unit and operation counts, and so whether the DFS
		// runs, what the plan allocates and how large the answer is. A
		// problem's cost ranges from 20 us to 12 ms and the card accounts
		// for half its variance, so these are dealt as one card: the mean
		// cost of a whole deck then stays within 2.5% from seed to seed. A workload that draws a multiple of len(g.cards) problems
		// sees every structure equally often at every seed.
		card := g.cards[g.deal("structure", len(g.cards))]
		st := card
		pair := meshPairs[st%len(meshPairs)]
		st /= len(meshPairs)
		rank := 2 + st%2
		st /= 2
		specs := specsByRank[rank]
		srcSpec := specs[st%len(specs)]
		st /= len(specs)
		dstSpec := specs[st%len(specs)]
		chunks := chunkChoices[st/len(specs)]
		// A mesh pair too large for the dealt variant takes the next
		// variant that holds it (the last one holds every pair).
		var ref service.TopologyRef
		var srcMesh, dstMesh string
		for v := g.deal("variant", len(variants)); ; v++ {
			tv := variants[v%len(variants)]
			ref = service.TopologyRef{Name: tv.name, Hosts: tv.hosts}
			if tv.name == mesh.TopologyMixed {
				ref.Oversubscription = oversubs[g.deal("oversub", len(oversubs))]
			}
			topo, err := g.reg.Build(ref.Name, mesh.TopologyParams{Hosts: ref.Hosts, Oversubscription: ref.Oversubscription})
			if err != nil {
				panic(fmt.Sprintf("bench: registry refused variant %+v: %v", tv, err))
			}
			var ok bool
			if srcMesh, dstMesh, ok = placeMeshes(topo, pair[0], pair[1]); ok {
				break
			}
		}
		shape := []int{extents[g.deal("dim0", len(extents))], extents[g.deal("dim1", len(extents))]}
		if rank == 3 {
			shape = append(shape, innerExtents[g.deal("dim2", len(innerExtents))])
		}
		req := service.PlanRequest{
			Topology: ref,
			Shape:    shape,
			DType:    dtypes[g.deal("dtype", len(dtypes))],
			Src:      service.Endpoint{Mesh: srcMesh, Spec: srcSpec},
			Dst:      service.Endpoint{Mesh: dstMesh, Spec: dstSpec},
			Options:  service.PlanOptions{Seed: int64(g.n), Chunks: chunks},
		}
		if p, ok := g.admit(req); ok {
			p.Structure = card
			return p
		}
	}
}

func (g *generator) drawN(n int) []problem {
	out := make([]problem, 0, n)
	for len(out) < n {
		out = append(out, g.draw())
	}
	return out
}

// table2Requests are the paper's nine Table 2 cases in wire form: the
// (1024,1024,512) fp32 tensor on a 5-host p3 cluster, sender mesh at host
// 0, receiver mesh at host 2. The wire carves meshes as contiguous device
// runs, so case 8's (2,3) and (3,2) meshes are runs of six devices rather
// than the first three GPUs of each host.
func table2Requests() []service.PlanRequest {
	cases := []struct {
		src, dst   string
		srcM, dstM []int
		dim0       int
	}{
		{"S0RR", "S0RR", []int{2, 4}, []int{2, 4}, 1024},
		{"RRR", "S0RR", []int{2, 4}, []int{2, 4}, 1024},
		{"RS0R", "S0RR", []int{2, 4}, []int{2, 4}, 1024},
		{"RS01R", "S01RR", []int{2, 4}, []int{2, 4}, 1024},
		{"S1RR", "S0RR", []int{2, 4}, []int{2, 4}, 1024},
		{"S0RR", "S0RR", []int{2, 4}, []int{3, 4}, 1026},
		{"S1RR", "RRR", []int{1, 4}, []int{2, 4}, 1024},
		{"RRR", "RRR", []int{2, 3}, []int{3, 2}, 1026},
		{"RS0R", "RRS0", []int{2, 4}, []int{2, 4}, 1024},
	}
	out := make([]service.PlanRequest, len(cases))
	for i, c := range cases {
		out[i] = service.PlanRequest{
			Topology: service.TopologyRef{Name: mesh.TopologyP3, Hosts: 5},
			Shape:    []int{c.dim0, 1024, 512},
			DType:    "fp32",
			Src:      service.Endpoint{Mesh: meshString(c.srcM, 0), Spec: c.src},
			Dst:      service.Endpoint{Mesh: meshString(c.dstM, 8), Spec: c.dst},
			Options:  service.PlanOptions{Seed: 1, Chunks: 64},
		}
	}
	return out
}

// table3Requests are the stage-boundary tensors of the six Table 3 jobs
// (three GPT, three U-Transformer) on each registry preset, stages carved
// as consecutive (dp, op) meshes exactly as TrainingJob.StageMeshes does.
// Combinations a preset cannot host are left to admit to reject.
func table3Requests() ([]service.PlanRequest, error) {
	type job struct {
		hosts int
		pc    model.ParallelConfig
		dt    tensor.DType
		batch int
		build func(pc model.ParallelConfig, dt tensor.DType, batch int) (*model.Workload, error)
	}
	gpt := func(g model.GPTConfig) func(model.ParallelConfig, tensor.DType, int) (*model.Workload, error) {
		return func(pc model.ParallelConfig, dt tensor.DType, batch int) (*model.Workload, error) {
			return model.NewGPTWorkload(g, pc, dt, batch, 2)
		}
	}
	ut := func(u model.UTransConfig) func(model.ParallelConfig, tensor.DType, int) (*model.Workload, error) {
		return func(pc model.ParallelConfig, dt tensor.DType, batch int) (*model.Workload, error) {
			return model.NewUTransWorkload(u, pc, dt, batch, 2)
		}
	}
	jobs := []job{
		{2, model.ParallelConfig{DP: 2, OP: 2, PP: 2}, tensor.Float16, 1024, gpt(model.GPT1_3B())},
		{2, model.ParallelConfig{DP: 2, OP: 2, PP: 2}, tensor.Float16, 1024, gpt(model.GPT2_6B())},
		{2, model.ParallelConfig{DP: 4, OP: 1, PP: 2}, tensor.Float16, 1024, gpt(model.GPT2_6B())},
		{4, model.ParallelConfig{DP: 2, OP: 4, PP: 2}, tensor.Float16, 2048, ut(model.UTrans1B())},
		{4, model.ParallelConfig{DP: 2, OP: 4, PP: 2}, tensor.Float16, 2048, ut(model.UTrans2_1B())},
		{4, model.ParallelConfig{DP: 2, OP: 4, PP: 2}, tensor.Float32, 2048, ut(model.UTrans2_1B())},
	}
	var out []service.PlanRequest
	for _, j := range jobs {
		w, err := j.build(j.pc, j.dt, j.batch)
		if err != nil {
			return nil, fmt.Errorf("table 3 workload: %w", err)
		}
		stage := []int{j.pc.DP, j.pc.OP}
		for _, preset := range []string{mesh.TopologyP3, mesh.TopologyDGXA100, mesh.TopologyMixed} {
			for _, bt := range w.Boundaries {
				out = append(out, service.PlanRequest{
					Topology: service.TopologyRef{Name: preset, Hosts: j.hosts},
					Shape:    []int(bt.Shape),
					DType:    j.dt.String(),
					Src:      service.Endpoint{Mesh: meshString(stage, bt.Boundary*j.pc.DevicesPerStage()), Spec: bt.SrcSpec},
					Dst:      service.Endpoint{Mesh: meshString(stage, (bt.Boundary+1)*j.pc.DevicesPerStage()), Spec: bt.DstSpec},
					Options:  service.PlanOptions{Seed: 1},
				})
			}
		}
	}
	return out, nil
}

// table2Count and paperProblemCount are how many problems the paper
// contributes: the nine Table 2 cases, then the Table 3 boundaries the
// presets can host. They are the same at every seed and lead every
// workload's population, so makespan_geomean_us is taken over one fixed set.
const (
	table2Count       = 9
	paperProblemCount = 54
)

// population returns n distinct problems: the paper's, then seeded draws. A
// population smaller than the paper set is a prefix of it (smoke sizes).
func (g *generator) population(n int) ([]problem, error) {
	reqs := table2Requests()
	t3, err := table3Requests()
	if err != nil {
		return nil, err
	}
	var probs []problem
	for _, r := range append(reqs, t3...) {
		if p, ok := g.admit(r); ok {
			probs = append(probs, p)
		}
	}
	if len(probs) != paperProblemCount {
		return nil, fmt.Errorf("the paper set has %d admissible problems, want %d", len(probs), paperProblemCount)
	}
	if n < len(probs) {
		return probs[:n], nil
	}
	return append(probs, g.drawN(n-len(probs))...), nil
}

// faultScenarios are the registry overlays tier_zipf attaches to a tenth of
// its requests; link-down needs a detour, so it is offered only where the
// topology has at least three hosts (a naive draw fails 2.7% of requests
// with "needs at least 3 hosts").
var faultScenarios = []string{mesh.FaultBrownout, mesh.FaultStraggler, mesh.FaultLinkDown}

// withFault returns p's request under a seeded fault scenario, validated
// like any other draw; ok is false when no scenario applies.
func (g *generator) withFault(p problem) (problem, bool) {
	n := len(faultScenarios)
	if p.Task.Src.Mesh.Topo.HostCount() < 3 {
		n-- // link-down is last
	}
	req := p.Req
	req.Faults = &service.FaultsRef{Scenario: faultScenarios[g.rng.Intn(n)]}
	return g.admit(req)
}

// zipfRanks returns n draws from a Zipf distribution over the ranks
// 0..keys-1, P(k) proportional to (1+k)^-s, taken at evenly spaced quantiles
// rather than at random: the counts per rank are the expected ones to within
// one draw, whatever the seed. The caller shuffles the order.
func zipfRanks(keys, n int, s float64) []int {
	cum := make([]float64, keys)
	total := 0.0
	for k := range cum {
		total += math.Pow(float64(1+k), -s)
		cum[k] = total
	}
	out := make([]int, n)
	k := 0
	for i := range out {
		u := (float64(i) + 0.5) / float64(n) * total
		for k < keys-1 && cum[k] < u {
			k++
		}
		out[i] = k
	}
	return out
}

// op is one operation of a workload's fixed list: which problem, through
// which node or wire format, and (open loop) when it is due.
type op struct {
	Problem int
	// Variant is the node index on tier_zipf and the wire format (0 JSON,
	// 1 binary) on serve_hit.
	Variant int
	Due     time.Duration
}

// streamHash is the identity of a request stream: the wire bytes of every
// problem, then every operation in issue order (problem, variant, due time).
// Two runs with one seed must agree on it; it is recorded in the output and
// pinned by a test.
func streamHash(probs []problem, ops []op) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, p := range probs {
		_ = enc.Encode(p.Req) // a sha256 writer cannot fail, nor can encoding a PlanRequest
	}
	for _, o := range ops {
		fmt.Fprintf(h, "%d %d %d\n", o.Problem, o.Variant, o.Due)
	}
	return hex.EncodeToString(h.Sum(nil))
}
