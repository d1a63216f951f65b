package sidechannel

import (
	"fmt"

	"xbarsec/internal/rng"
)

// Query-efficient search for the input column with the largest power
// signal. The paper's Section III notes that when the 1-norm map is
// smooth over pixel locations (MNIST) the maximum could be found with far
// fewer than N queries, while rapidly-varying maps (CIFAR-10) resist such
// search. Hill climbing makes that trade-off measurable against the
// N-query basis extraction (ablation A2 in DESIGN.md).

// SearchResult reports where a search strategy believes the largest
// column signal lies and what it cost.
type SearchResult struct {
	// Index is the flattened input index with the (estimated) largest
	// power signal.
	Index int
	// Signal is the measured power at Index.
	Signal float64
	// Queries is the number of power measurements consumed.
	Queries int
}

// HillClimbConfig controls the greedy spatial search.
type HillClimbConfig struct {
	// Width and Height give the image geometry used to define pixel
	// neighborhoods. Width*Height must divide the input dimension (the
	// quotient is the channel count; moves stay within a channel).
	Width, Height int
	// Restarts is the number of random starting pixels.
	Restarts int
	// MaxSteps bounds the climb length per restart.
	MaxSteps int
}

// HillClimbMaxSearch greedily climbs the power landscape over the pixel
// lattice: from a random pixel it repeatedly moves to the best 4-connected
// neighbor until no neighbor improves. On smooth maps (MNIST) it finds a
// near-maximal pixel in far fewer than N queries; on rough maps (CIFAR)
// it stalls in local maxima, reproducing the paper's qualitative claim.
func HillClimbMaxSearch(p *Probe, cfg HillClimbConfig, src *rng.Source) (SearchResult, error) {
	n := p.Inputs()
	if cfg.Width <= 0 || cfg.Height <= 0 {
		return SearchResult{}, fmt.Errorf("sidechannel: invalid geometry %dx%d", cfg.Width, cfg.Height)
	}
	plane := cfg.Width * cfg.Height
	if plane > n || n%plane != 0 {
		return SearchResult{}, fmt.Errorf("sidechannel: geometry %dx%d incompatible with %d inputs", cfg.Width, cfg.Height, n)
	}
	channels := n / plane
	if cfg.Restarts <= 0 {
		cfg.Restarts = 1
	}
	if cfg.MaxSteps <= 0 {
		cfg.MaxSteps = plane
	}
	if src == nil {
		return SearchResult{}, fmt.Errorf("sidechannel: hill climb requires a random source")
	}

	cache := make(map[int]float64, 4*cfg.Restarts*cfg.MaxSteps)
	var queries int
	e := make([]float64, n) // the basis vector, one entry set per read
	measure := func(idx int) (float64, error) {
		if v, ok := cache[idx]; ok {
			return v, nil
		}
		e[idx] = 1
		v, err := p.Measure(e)
		e[idx] = 0
		if err != nil {
			return 0, err
		}
		queries++
		cache[idx] = v
		return v, nil
	}

	best := SearchResult{Index: -1}
	for r := 0; r < cfg.Restarts; r++ {
		ch := src.Intn(channels)
		x := src.Intn(cfg.Width)
		y := src.Intn(cfg.Height)
		cur := ch*plane + y*cfg.Width + x
		curVal, err := measure(cur)
		if err != nil {
			return SearchResult{}, err
		}
		for step := 0; step < cfg.MaxSteps; step++ {
			bestN, bestV := -1, curVal
			px, py := (cur%plane)%cfg.Width, (cur%plane)/cfg.Width
			base := (cur / plane) * plane
			for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
				nx, ny := px+d[0], py+d[1]
				if nx < 0 || nx >= cfg.Width || ny < 0 || ny >= cfg.Height {
					continue
				}
				cand := base + ny*cfg.Width + nx
				v, err := measure(cand)
				if err != nil {
					return SearchResult{}, err
				}
				if v > bestV {
					bestV, bestN = v, cand
				}
			}
			if bestN < 0 {
				break // local maximum
			}
			cur, curVal = bestN, bestV
		}
		if best.Index < 0 || curVal > best.Signal {
			best = SearchResult{Index: cur, Signal: curVal}
		}
	}
	best.Queries = queries
	return best, nil
}
