package main

import (
	"math"
	"testing"

	"alpacomm/internal/mesh"
	"alpacomm/internal/service"
)

// Every draw is validated at set-up, so no workload carries a request the
// program would refuse: in particular link-down, which needs a detour, is
// never attached to a 2-host topology.
func TestGeneratorRejectsInvalidDraws(t *testing.T) {
	g := newGenerator(7)
	probs, err := g.population(paperProblemCount + 400)
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	twoHost, faulted := 0, 0
	for _, p := range probs {
		if keys[p.Key] {
			t.Fatalf("duplicate problem %q", p.Key)
		}
		keys[p.Key] = true
		hosts := p.Task.Src.Mesh.Topo.HostCount()
		if hosts < 3 {
			twoHost++
		}
		fp, ok := g.withFault(p)
		if !ok {
			continue
		}
		faulted++
		if fp.Req.Faults.Scenario == mesh.FaultLinkDown && hosts < 3 {
			t.Fatalf("link-down attached to a %d-host topology", hosts)
		}
		if fp.Key == p.Key {
			t.Fatalf("faulted twin shares its healthy key %q", p.Key)
		}
	}
	if twoHost == 0 || faulted == 0 {
		t.Fatalf("population exercises nothing: %d two-host problems, %d faulted twins", twoHost, faulted)
	}
}

func TestNaiveLinkDownIsRefused(t *testing.T) {
	g := newGenerator(1)
	p := g.draw()
	for p.Task.Src.Mesh.Topo.HostCount() >= 3 {
		p = g.draw()
	}
	req := p.Req
	req.Faults = nil
	req.Options.Seed = 1 << 40 // a key of its own
	healthy, ok := g.admit(req)
	if !ok {
		t.Fatal("healthy twin refused")
	}
	withLinkDown := healthy.Req
	withLinkDown.Faults = &service.FaultsRef{Scenario: mesh.FaultLinkDown}
	if _, ok := g.admit(withLinkDown); ok {
		t.Fatal("link-down on a 2-host topology was admitted")
	}
	if g.rejected["invalid"] == 0 {
		t.Fatal("the refusal was not counted")
	}
}

// The same seed gives the same request streams and another seed gives
// others, on all four workloads; the seed-1 hashes themselves are pinned
// in testdata/golden_seed1.json (TestGolden).
func TestStreamsAreAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloadSpecs {
		var hashes [3]string
		for i, seed := range []uint64{1, 1, 2} {
			inst, st, err := setupWorkload(w.Name, seed, smokeSizes)
			if err != nil {
				t.Fatal(err)
			}
			st.close()
			hashes[i] = inst.hash
		}
		if hashes[0] != hashes[1] {
			t.Errorf("%s: seed 1 gave two different streams", w.Name)
		}
		if hashes[0] == hashes[2] {
			t.Errorf("%s: seeds 1 and 2 gave the same stream", w.Name)
		}
	}
}

// The paper's problems lead every population at every seed, so the plan
// quality metric is taken over one fixed set.
func TestPaperProblemsLeadEveryPopulation(t *testing.T) {
	a, err := newGenerator(1).population(paperProblemCount + 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newGenerator(99).population(paperProblemCount + 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < paperProblemCount; i++ {
		if a[i].Key != b[i].Key {
			t.Fatalf("paper problem %d differs between seeds", i)
		}
	}
	if a[paperProblemCount].Key == b[paperProblemCount].Key {
		t.Fatal("the first seeded draw is the same at two seeds")
	}
}

// The Zipf sample is stratified: the counts per rank are the expected ones
// at every seed, so the hit rate of tier_zipf does not ride on sampling luck.
func TestZipfRanksAreTheExpectedCounts(t *testing.T) {
	const keys, n = 1998, 4096
	ranks := zipfRanks(keys, n, zipfExponent)
	if len(ranks) != n {
		t.Fatalf("%d draws, want %d", len(ranks), n)
	}
	counts := make([]int, keys)
	for _, k := range ranks {
		if k < 0 || k >= keys {
			t.Fatalf("rank %d outside 0..%d", k, keys-1)
		}
		counts[k]++
	}
	total := 0.0
	for k := 0; k < keys; k++ {
		total += math.Pow(float64(1+k), -zipfExponent)
	}
	distinct := 0
	for k, c := range counts {
		if want := n * math.Pow(float64(1+k), -zipfExponent) / total; math.Abs(float64(c)-want) > 1 {
			t.Errorf("rank %d drawn %d times, expected %.2f", k, c, want)
		}
		if c > 0 {
			distinct++
		}
	}
	// More distinct keys than the tier caches (384), or nothing is evicted.
	if distinct < 500 {
		t.Errorf("only %d distinct keys drawn", distinct)
	}
}
