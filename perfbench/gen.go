package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"lowcomm3d/internal/grid"
)

// Workload inputs are a pure function of the seed: every generator below
// draws from its own math/rand source seeded with the run's seed, and the
// program under test receives only what the generator returns.

// wireSmallInputs is the wire-small workload: a fixed set of boxes
// cycled by every client, one tenant per client.
type wireSmallInputs struct {
	N, K    int
	Boxes   []grid.Box
	Inputs  []*grid.Field // Inputs[i] is the field submitted over Boxes[i]
	Tenants []string      // Tenants[c] is client c's tenant
}

const (
	wireSmallN       = 32
	wireSmallK       = 8
	wireSmallBoxes   = 4
	wireSmallClients = 2
)

// wireSmallBase is the box layout every wire-small seed is an image of.
// The four positions have octrees of 456 to 505 cells, so no box's cost
// stands apart and the latency median falls inside one cost class.
var wireSmallBase = []grid.Point{{0, 0, 0}, {8, 8, 8}, {16, 16, 16}, {4, 12, 20}}

// genWireSmall maps the base layout through a seeded symmetry of the
// cube (one of 6 axis permutations times 8 reflections) and shuffles the
// cycling order. The octree policy is symmetric, so every seed's boxes
// have the same cells, samples and kept planes; the seed moves where the
// work sits, not how much there is.
func genWireSmall(seed int64) wireSmallInputs {
	rng := rand.New(rand.NewSource(seed))
	in := wireSmallInputs{N: wireSmallN, K: wireSmallK}
	perm := rng.Perm(3)
	flip := rng.Intn(8)
	for _, base := range wireSmallBase {
		var lo grid.Point
		for axis := range lo {
			lo[axis] = base[perm[axis]]
			if flip>>axis&1 == 1 {
				lo[axis] = wireSmallN - wireSmallK - lo[axis]
			}
		}
		in.Boxes = append(in.Boxes, grid.CubeAt(lo, wireSmallK))
	}
	rng.Shuffle(len(in.Boxes), func(i, j int) { in.Boxes[i], in.Boxes[j] = in.Boxes[j], in.Boxes[i] })
	for range in.Boxes {
		in.Inputs = append(in.Inputs, randomField(rng, wireSmallK))
	}
	for c := 0; c < wireSmallClients; c++ {
		in.Tenants = append(in.Tenants, fmt.Sprintf("client-%d", c))
	}
	return in
}

// burstJob is one serve-burst arrival.
type burstJob struct {
	Due    time.Duration // offset from the start of the timed window
	Tenant string
	Box    grid.Box
	Input  int // index into serveBurstInputs.Inputs[k]
	Check  bool
}

// serveBurstInputs is the serve-burst workload: an open-loop arrival
// schedule over distinct random boxes.
type serveBurstInputs struct {
	N       int
	Jobs    []burstJob
	Inputs  map[int][]*grid.Field // per k, a pool of input fields
	Weights map[string]int        // tenant → DRR weight
}

const (
	serveBurstN = 64
	// serveBurstRate is the fixed absolute arrival rate (jobs/s); see the
	// serve-burst entry of BENCHMARK.json for the capacity it derives from.
	serveBurstRate = 30
	// serveBurstInputPool is how many distinct input fields each k has;
	// the compute does not depend on the values, only the check does.
	serveBurstInputPool = 8
	// serveBurstCheckEvery: about one job in this many is checked
	// against an untimed in-process run.
	serveBurstCheckEvery = 8
)

var serveBurstKs = []int{8, 16}

// serveBurstTenants maps tenant → DRR weight, 1:2:4.
var serveBurstTenants = map[string]int{"tenant-w1": 1, "tenant-w2": 2, "tenant-w4": 4}

// genServeBurst draws rate·seconds arrivals. Given their count, the
// arrival times of a Poisson process are independent and uniform over
// the window, so the schedule is Poisson arrivals conditioned on exactly
// rate·seconds jobs: throughput does not vary with the draw's count.
func genServeBurst(seed int64, seconds float64, rate float64) serveBurstInputs {
	rng := rand.New(rand.NewSource(seed))
	in := serveBurstInputs{N: serveBurstN, Inputs: map[int][]*grid.Field{}, Weights: serveBurstTenants}
	for _, k := range serveBurstKs {
		for i := 0; i < serveBurstInputPool; i++ {
			in.Inputs[k] = append(in.Inputs[k], randomField(rng, k))
		}
	}
	tenants := make([]string, 0, len(serveBurstTenants))
	for t := range serveBurstTenants {
		tenants = append(tenants, t)
	}
	sort.Strings(tenants)
	count := int(rate*seconds + 0.5)
	if count < 1 {
		count = 1
	}
	dues := make([]time.Duration, count)
	for i := range dues {
		dues[i] = time.Duration(rng.Float64() * seconds * float64(time.Second))
	}
	sort.Slice(dues, func(i, j int) bool { return dues[i] < dues[j] })
	ks := make([]int, count)
	for i := range ks {
		ks[i] = serveBurstKs[rng.Intn(len(serveBurstKs))]
	}
	boxes := distinctBoxes(rng, serveBurstN, ks)
	for i := range dues {
		in.Jobs = append(in.Jobs, burstJob{
			Due:    dues[i],
			Tenant: tenants[rng.Intn(len(tenants))],
			Box:    boxes[i],
			Input:  rng.Intn(serveBurstInputPool),
			Check:  rng.Intn(serveBurstCheckEvery) == 0,
		})
	}
	return in
}

// massifDistInputs is the massif-dist workload. The problem is the
// paper's two-phase sphere and does not depend on the seed: the solve is
// deterministic, so every run must report the same stress and the same
// fabric bytes.
type massifDistInputs struct {
	N, SubSize, FarRate, Ranks, Budget int
	Center                             grid.Point
	Radius                             float64
	E                                  grid.SymTensor
}

func genMassifDist(int64) massifDistInputs {
	return massifDistInputs{
		N: 32, SubSize: 16, FarRate: 8, Ranks: 2, Budget: 5,
		Center: grid.Point{16, 16, 16}, Radius: 8,
		E: grid.SymTensor{0.01, 0, 0, 0, 0, 0},
	}
}

// distinctBoxes draws one cube per entry of ks (edge ks[i]) at a uniform
// random position inside an n³ grid, no box equal to an earlier one.
func distinctBoxes(rng *rand.Rand, n int, ks []int) []grid.Box {
	seen := make(map[grid.Box]bool, len(ks))
	out := make([]grid.Box, 0, len(ks))
	for _, k := range ks {
		for {
			lo := grid.Point{rng.Intn(n - k + 1), rng.Intn(n - k + 1), rng.Intn(n - k + 1)}
			b := grid.CubeAt(lo, k)
			if !seen[b] {
				seen[b] = true
				out = append(out, b)
				break
			}
		}
	}
	return out
}

func randomField(rng *rand.Rand, k int) *grid.Field {
	f := grid.NewField(grid.Cube(k))
	for i := range f.Data {
		f.Data[i] = rng.NormFloat64()
	}
	return f
}
