package analysis

// Trial algebra in the spirit of CUBE's Performance Algebra (Wolf & Mohr,
// cited in §IV): DiffTrials, MergeTrials and RelativeChange (columnar.go)
// are difference, merge and aggregation operations over whole parallel
// profiles, so cross-experiment analyses ("what changed between these two
// builds?") compose like values. This file holds RelativeChange's row type
// and ordering.

// Change is one row of RelativeChange, which summarizes a trial against a
// baseline: per flat event, the fractional change of the metric's mean
// exclusive value, sorted by descending absolute change. Events below
// minBase in the baseline are skipped as noise.
type Change struct {
	Event    string
	Base     float64
	Other    float64
	Fraction float64 // (Other-Base)/Base
}

func sortChanges(cs []Change) {
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && abs(cs[j].Fraction) > abs(cs[j-1].Fraction); j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
