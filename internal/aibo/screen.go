package aibo

import (
	"repro/internal/acq"
	"repro/internal/gp"
	"repro/internal/heuristic"
	"repro/internal/numeric"
)

// screenItem is one survivor of the acquisition screen: its AF value and its
// arrival index in the raw candidate stream (the deterministic tie-breaker).
type screenItem struct {
	idx int
	af  float64
}

// screenHeap is a min-heap ordered by (af, arrival index): the root is the
// weakest survivor, earliest arrival first among equal AF values.
type screenHeap []screenItem

func (h screenHeap) less(a, b int) bool {
	if h[a].af != h[b].af {
		return h[a].af < h[b].af
	}
	return h[a].idx < h[b].idx
}

func (h *screenHeap) push(it screenItem) {
	*h = append(*h, it)
	s := *h
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if !s.less(i, p) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

// fix restores the heap property after the root was replaced.
func (h screenHeap) fix() {
	i, n := 0, len(h)
	for {
		m := i
		if l := 2*i + 1; l < n && h.less(l, m) {
			m = l
		}
		if r := 2*i + 2; r < n && h.less(r, m) {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// screenTop returns the topN acquisition-best members of raw, in arrival
// order. The whole pool's posterior comes from one PredictBatch call (one
// multi-RHS triangular solve per block instead of one per candidate), and the
// running top-N lives in the min-heap above, so keeping n of k candidates
// costs O(k log n) rather than the O(k·n) of rescanning for the weakest
// member on every replacement. A challenger only evicts the root on a
// strictly greater AF value.
func screenTop(model *gp.GP, cfg acq.Config, raw [][]float64, topN int) [][]float64 {
	if len(raw) == 0 || topN <= 0 {
		return nil
	}
	mu := make([]float64, len(raw))
	sigma := make([]float64, len(raw))
	model.PredictBatch(raw, mu, sigma)
	h := make(screenHeap, 0, topN)
	for i := range raw {
		v := cfg.FromPosterior(mu[i], sigma[i])
		if len(h) < topN {
			h.push(screenItem{idx: i, af: v})
			continue
		}
		if v > h[0].af {
			h[0] = screenItem{idx: i, af: v}
			h.fix()
		}
	}
	// Survivors in arrival order, so downstream iteration order never
	// depends on the heap's internal layout.
	order := make([]int, 0, len(h))
	for _, it := range h {
		order = append(order, it.idx)
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && order[j] < order[j-1]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	out := make([][]float64, len(order))
	for i, idx := range order {
		out[i] = raw[idx]
	}
	return out
}

// maximizeBatch runs maximizeFrom from every start on up to workers
// goroutines, collecting results by submission index. Each restart only reads
// the fitted model, so the outputs are identical for every worker count;
// parallelism changes the wall-clock only.
func maximizeBatch(model *gp.GP, cfg acq.Config, box heuristic.Bounds, starts [][]float64, steps, workers int) ([][]float64, []float64) {
	xs := make([][]float64, len(starts))
	vs := make([]float64, len(starts))
	numeric.ParallelFor(workers, len(starts), func(i int) {
		xs[i], vs[i] = maximizeFrom(model, cfg, box, starts[i], steps)
	})
	return xs, vs
}
