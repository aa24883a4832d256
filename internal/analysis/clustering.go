package analysis

import "math"

// Clustering is the result of k-means over the threads of a trial: each
// thread is a feature vector of per-event exclusive metric values, and the
// clustering partitions threads with similar behaviour — PerfExplorer's
// classic technique for spotting groups of threads doing different work
// (e.g. master vs workers, or imbalanced schedules).
type Clustering struct {
	K          int
	Events     []string    // feature order
	Assignment []int       // thread → cluster
	Centroids  [][]float64 // cluster → feature vector
	Sizes      []int       // cluster → member count
	Inertia    float64     // sum of squared distances to assigned centroids
}

// kmeansCore runs deterministic k-means over a prebuilt threads×events
// feature matrix. KMeans and its row oracle share it: given the same
// matrix, every float operation happens in the same order, so the two agree
// bit for bit.
func kmeansCore(events []string, feats [][]float64, k, maxIter int) (*Clustering, error) {
	if maxIter <= 0 {
		maxIter = 50
	}

	// Farthest-point initialization.
	centroids := make([][]float64, 0, k)
	centroids = append(centroids, append([]float64(nil), feats[0]...))
	for len(centroids) < k {
		bestIdx, bestDist := 0, -1.0
		for i, f := range feats {
			d := math.Inf(1)
			for _, c := range centroids {
				if dd := sqDist(f, c); dd < d {
					d = dd
				}
			}
			if d > bestDist {
				bestDist, bestIdx = d, i
			}
		}
		centroids = append(centroids, append([]float64(nil), feats[bestIdx]...))
	}

	assign := make([]int, len(feats))
	for iter := 0; iter < maxIter; iter++ {
		changed := false
		for i, f := range feats {
			if best := nearest(f, centroids); assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		// Recompute centroids in thread order: the summation order of the
		// floating-point accumulation is part of the result.
		counts := make([]int, k)
		sums := make([][]float64, k)
		for c := range sums {
			sums[c] = make([]float64, len(events))
		}
		for i, f := range feats {
			counts[assign[i]]++
			for j, v := range f {
				sums[assign[i]][j] += v
			}
		}
		for c := range centroids {
			if counts[c] == 0 {
				continue // keep the old centroid for empty clusters
			}
			for j := range centroids[c] {
				centroids[c][j] = sums[c][j] / float64(counts[c])
			}
		}
		if !changed {
			break
		}
	}

	cl := &Clustering{K: k, Events: events, Assignment: assign, Centroids: centroids, Sizes: make([]int, k)}
	for i, f := range feats {
		cl.Sizes[assign[i]]++
		cl.Inertia += sqDist(f, centroids[assign[i]])
	}
	return cl, nil
}

// nearest returns the index of the centroid closest to f, the lowest one on
// a tie.
func nearest(f []float64, centroids [][]float64) int {
	best, bestD := 0, math.Inf(1)
	for c := range centroids {
		if d := sqDist(f, centroids[c]); d < bestD {
			best, bestD = c, d
		}
	}
	return best
}

func sqDist(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}
