package massif

import "sync"

// strainCheckpoint is the lightweight per-iteration checkpoint behind the
// fixed-point loop's crash recovery: at the start of every iteration each
// worker deposits a deep copy of the strain of its owned sub-domains
// (boxes × Voigt components × k³ values — far smaller than the global
// grid). Survivors restore from it to redo an iteration whose sparse
// exchange a peer died inside of, and a dead worker's sub-domains are
// assembled into the final result from its last deposit (strain frozen at
// the crash iteration) instead of being lost entirely.
type strainCheckpoint struct {
	mu      sync.Mutex
	entries map[int][][][]float64 // worker → box → Voigt component → data
}

func newStrainCheckpoint() *strainCheckpoint {
	return &strainCheckpoint{entries: make(map[int][][][]float64)}
}

// save deposits a deep copy of worker's strain, replacing any earlier
// deposit.
func (s *strainCheckpoint) save(worker int, eps [][][]float64) {
	cp := cloneStrain(eps)
	s.mu.Lock()
	s.entries[worker] = cp
	s.mu.Unlock()
}

// load returns a deep copy of worker's last deposit, so restoring cannot
// alias the stored snapshot across repeated restarts.
func (s *strainCheckpoint) load(worker int) (eps [][][]float64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[worker]
	if !ok {
		return nil, false
	}
	return cloneStrain(e), true
}

func cloneStrain(eps [][][]float64) [][][]float64 {
	out := make([][][]float64, len(eps))
	for i, box := range eps {
		out[i] = make([][]float64, len(box))
		for v, data := range box {
			cp := make([]float64, len(data))
			copy(cp, data)
			out[i][v] = cp
		}
	}
	return out
}
