// Package msa is the multiple sequence alignment case study (§III-A): the
// ClustalW-style pipeline whose first stage — the Smith-Waterman distance
// matrix — dominates runtime and parallelizes over sequence pairs with
// OpenMP. The package contains a real Smith-Waterman local alignment kernel
// (used by examples and to ground the cost model) and a workload model that
// runs the three ClustalW stages on the execution simulator under any
// OpenMP schedule, reproducing the load-imbalance behaviour of Fig. 4.
package msa

import "math/rand"

// Amino acid alphabet for generated protein sequences.
const alphabet = "ARNDCQEGHILKMFPSTWYV"

// GenerateSequences produces n random protein sequences whose lengths are
// uniform in [meanLen-jitter, meanLen+jitter], deterministically from seed.
func GenerateSequences(n, meanLen, jitter int, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	seqs := make([][]byte, n)
	for i := range seqs {
		s := make([]byte, drawLength(rng, meanLen, jitter))
		for j := range s {
			s[j] = alphabet[rng.Intn(len(alphabet))]
		}
		seqs[i] = s
	}
	return seqs
}

func drawLength(rng *rand.Rand, meanLen, jitter int) int {
	length := meanLen
	if jitter > 0 {
		length = meanLen - jitter + rng.Intn(2*jitter+1)
	}
	if length < 1 {
		length = 1
	}
	return length
}

// sequenceLengths returns the length of every sequence GenerateSequences
// would produce for the same arguments, without building one: the workload
// model charges by length alone. Lengths and residues come out of one
// generator, so each residue is still drawn, in the same order, and dropped.
func sequenceLengths(n, meanLen, jitter int, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	lengths := make([]int64, n)
	for i := range lengths {
		length := drawLength(rng, meanLen, jitter)
		for j := 0; j < length; j++ {
			skipResidue(rng)
		}
		lengths[i] = int64(length)
	}
	return lengths
}

// residueMax is the largest Int31 that math/rand's Intn(len(alphabet))
// accepts: it draws Int31 values until one is at most the last multiple of
// the alphabet size below 2^31, less one, and reduces that one modulo the
// size (a definition Go 1 compatibility freezes).
const residueMax = int32(1<<31 - 1 - (1<<31)%len(alphabet))

// skipResidue leaves rng where GenerateSequences' rng.Intn(len(alphabet))
// leaves it, without the two divisions Intn spends on computing a residue
// nobody reads — 180 000 times per default-sized run.
func skipResidue(rng *rand.Rand) {
	for rng.Int31() > residueMax {
	}
}

// ScoreParams are the affine-free Smith-Waterman scoring constants.
type ScoreParams struct {
	Match    int // score for a character match (> 0)
	Mismatch int // score for a mismatch (< 0)
	Gap      int // gap penalty (< 0)
}

// DefaultScore returns the classic +2/-1/-1 scoring.
func DefaultScore() ScoreParams { return ScoreParams{Match: 2, Mismatch: -1, Gap: -1} }

// Align computes the optimal Smith-Waterman local alignment score between a
// and b with linear gap penalties, using the standard O(len(a)*len(b))
// dynamic program with a two-row working set. It returns the best score and
// the number of DP cells computed (the work unit the cost model charges).
func Align(a, b []byte, p ScoreParams) (score int, cells int) {
	if len(a) == 0 || len(b) == 0 {
		return 0, 0
	}
	prev := make([]int, len(b)+1)
	curr := make([]int, len(b)+1)
	best := 0
	for i := 1; i <= len(a); i++ {
		for j := 1; j <= len(b); j++ {
			s := p.Mismatch
			if a[i-1] == b[j-1] {
				s = p.Match
			}
			v := prev[j-1] + s
			if up := prev[j] + p.Gap; up > v {
				v = up
			}
			if left := curr[j-1] + p.Gap; left > v {
				v = left
			}
			if v < 0 {
				v = 0
			}
			curr[j] = v
			if v > best {
				best = v
			}
		}
		prev, curr = curr, prev
	}
	return best, len(a) * len(b)
}

// Distance converts an alignment score to the ClustalW-style fractional
// distance in [0,1]: one minus the score normalized by the self-alignment
// score of the shorter sequence.
func Distance(a, b []byte, p ScoreParams) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 1
	}
	score, _ := Align(a, b, p)
	short := len(a)
	if len(b) < short {
		short = len(b)
	}
	max := short * p.Match
	if max <= 0 {
		return 1
	}
	d := 1 - float64(score)/float64(max)
	if d < 0 {
		return 0
	}
	return d
}
