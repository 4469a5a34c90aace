package main

import (
	"reflect"
	"testing"

	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/sample"
)

func TestGeneratorsAreDeterministic(t *testing.T) {
	if a, b := genWireSmall(7), genWireSmall(7); !reflect.DeepEqual(a, b) {
		t.Error("wire-small inputs differ for the same seed")
	}
	if a, b := genServeBurst(7, 3, 30), genServeBurst(7, 3, 30); !reflect.DeepEqual(a, b) {
		t.Error("serve-burst inputs differ for the same seed")
	}
	if a, b := genMassifDist(7), genMassifDist(8); !reflect.DeepEqual(a, b) {
		t.Error("massif-dist inputs must not depend on the seed")
	}
}

func TestGeneratorsVaryWithSeed(t *testing.T) {
	if a, b := genWireSmall(1), genWireSmall(2); reflect.DeepEqual(a.Boxes, b.Boxes) {
		t.Error("wire-small boxes identical across seeds")
	}
	if a, b := genServeBurst(1, 3, 30), genServeBurst(2, 3, 30); reflect.DeepEqual(a.Jobs, b.Jobs) {
		t.Error("serve-burst schedules identical across seeds")
	}
}

func TestWireSmallShape(t *testing.T) {
	in := genWireSmall(3)
	if len(in.Boxes) != wireSmallBoxes || len(in.Inputs) != wireSmallBoxes || len(in.Tenants) != wireSmallClients {
		t.Fatalf("shape: %d boxes, %d inputs, %d tenants", len(in.Boxes), len(in.Inputs), len(in.Tenants))
	}
	seen := map[string]bool{}
	for i, b := range in.Boxes {
		if s := b.Size(); s[0] != wireSmallK || s[1] != wireSmallK || s[2] != wireSmallK {
			t.Errorf("box %d is %v, want a %d-cube", i, b, wireSmallK)
		}
		if b.Lo[0] < 0 || b.Hi[0] > wireSmallN || b.Lo[2] < 0 || b.Hi[2] > wireSmallN {
			t.Errorf("box %d %v outside the %d³ grid", i, b, wireSmallN)
		}
		if seen[b.String()] {
			t.Errorf("box %d %v repeats", i, b)
		}
		seen[b.String()] = true
	}
}

func TestServeBurstSchedule(t *testing.T) {
	const seconds, rate = 4.0, 30.0
	in := genServeBurst(11, seconds, rate)
	if len(in.Jobs) != int(seconds*rate) {
		t.Fatalf("%d arrivals, want exactly %v", len(in.Jobs), seconds*rate)
	}
	seen := map[string]bool{}
	checks := 0
	for i, j := range in.Jobs {
		if i > 0 && j.Due < in.Jobs[i-1].Due {
			t.Fatalf("arrival %d due %v before arrival %d", i, j.Due, i-1)
		}
		if j.Due < 0 || j.Due.Seconds() >= seconds {
			t.Errorf("arrival %d due %v outside the window", i, j.Due)
		}
		if _, ok := in.Weights[j.Tenant]; !ok {
			t.Errorf("arrival %d has unknown tenant %q", i, j.Tenant)
		}
		if k := j.Box.Size()[0]; k != 8 && k != 16 {
			t.Errorf("arrival %d box edge %d", i, k)
		}
		if seen[j.Box.String()] {
			t.Errorf("arrival %d box %v repeats, so it would hit the pipeline cache", i, j.Box)
		}
		seen[j.Box.String()] = true
		if j.Check {
			checks++
		}
	}
	if checks == 0 {
		t.Error("no arrival is selected for the output check")
	}
}

// Every wire-small seed must give the same amount of work: the same
// octree cells and samples over its four boxes.
func TestWireSmallWorkIsSeedInvariant(t *testing.T) {
	work := func(seed int64) (cells, samples int) {
		for _, b := range genWireSmall(seed).Boxes {
			tree, err := sample.DefaultPolicy(b, farRate).Tree(grid.Cube(wireSmallN))
			if err != nil {
				t.Fatal(err)
			}
			cells += len(tree.Cells)
			samples += tree.SampleCount()
		}
		return cells, samples
	}
	c0, s0 := work(1)
	for seed := int64(2); seed <= 12; seed++ {
		if c, s := work(seed); c != c0 || s != s0 {
			t.Errorf("seed %d: %d cells, %d samples; seed 1: %d cells, %d samples", seed, c, s, c0, s0)
		}
	}
}
