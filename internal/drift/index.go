package drift

import (
	"math"
	"sort"

	"repro/internal/mat"
)

// The feature-space gate's nearest-neighbour search. Distance must return
// exactly what a brute-force scan returns — sqrt(min_i d_i), with d_i the
// squared distance summed in canonical feature order — but without
// touching every stored row. The index rotates the standardised training
// rows onto their principal axes once, and a query is searched in that
// rotated space:
//
//   - rows are sorted by their first principal coordinate (PC1), and the
//     scan walks outward from the query's PC1 position, closing a side once
//     the PC1 gap alone exceeds the pruning limit;
//   - each visited row accumulates its rotated squared distance in
//     descending-variance order and is abandoned once the partial sum
//     exceeds the limit;
//   - a row that survives is re-scored in the canonical coordinates with
//     the brute-force arithmetic, and only canonical scores ever become the
//     best distance.
//
// Rotation preserves distance only up to rounding, so the limit is the
// best canonical score widened by a slack that dominates the rotation's
// error: for a row whose canonical score c does not exceed the best b, the
// computed rotated partial sums s satisfy
//
//	√s ≤ (1+ρ)·√b + E,  ρ ≤ γ(d+1) + u + η/2,  E ≤ √d·γ(d)·(1+η)·(‖z‖ + ‖t‖)
//
// with u = 2⁻⁵³ the unit roundoff, γ(k) = k·u/(1-k·u) the standard
// floating-point dot-product bound, η the measured orthogonality defect
// ‖BBᵀ-I‖_F of the stored basis B, z the standardised query and t the
// training row. The search prunes only rows whose rotated partial sum
// exceeds ((1+rel)·√b + abs)², with rel = relSlack + η and abs twice the
// bound on E (see absPerNorm). A pruned row therefore has a canonical score
// above the best already found, so the minimum — and the returned value —
// is bit-identical to the brute-force scan's. The relative term alone would
// not suffice: E is proportional to the vectors' norms, not to their
// difference, so near-duplicate rows need the absolute term.
const (
	// relSlack is the relative part of the pruning slack. For the 28-wide
	// covariance embedding ρ is about 3e-15 plus η/2, so 1e-9 leaves five
	// orders of magnitude of margin; η is added on top in case a basis is
	// ever less orthogonal than Jacobi's.
	relSlack = 1e-9
	// maxPruneNorm caps ‖z‖ + max‖t‖ for pruning. Past it the rotated sums
	// could overflow, so the absolute slack becomes +Inf: nothing is
	// pruned and every row is re-scored canonically.
	maxPruneNorm = 1e150
	// maxPCADim is the widest feature row the index rotates. Jacobi is
	// cubic in the width and the basis quadratic, so wider rows keep their
	// canonical coordinates (an identity basis: exact, pruned on feature 0).
	maxPCADim = 256
	// stackDim is the widest row Distance standardises and rotates in a
	// stack buffer; wider rows take one heap buffer per call.
	stackDim = 64
)

// featIndex is the derived search structure over a FeatureStats' Train
// rows. It is built once and read-only afterwards.
type featIndex struct {
	dim int
	// basis is dim×dim, row m the m-th principal axis in descending
	// variance order; nil means the identity (no rotation).
	basis []float64
	// rot holds the Train rows in principal coordinates, sorted by PC1;
	// rot row k is Train row perm[k].
	rot  []float64
	perm []int32
	// rel is the relative slack, relSlack plus the basis's orthogonality
	// defect; absPerNorm times ‖z‖ + tmax is the absolute slack.
	rel        float64
	absPerNorm float64
	// tmax is the largest Train row norm; +Inf (non-finite or huge rows)
	// disables pruning.
	tmax float64
}

// newFeatIndex builds the index over the standardised training rows.
func newFeatIndex(train *mat.Matrix) *featIndex {
	var n, d int
	if train != nil {
		n, d = train.Rows, train.Cols
	}
	ix := &featIndex{dim: d, basis: principalAxes(train), rel: relSlack}
	ix.rel += orthoDefect(ix.basis, d)
	// Twice √d·γ(d) per unit norm, with d+2 for the slack's own rounding.
	ix.absPerNorm = 2 * float64(d+2) * math.Sqrt(float64(d)) * 0x1p-53

	rot := make([]float64, n*d)
	for i := 0; i < n; i++ {
		t := train.Row(i)
		ix.rotate(rot[i*d:(i+1)*d], t)
		nrm := math.Sqrt(mat.Dot(t, t))
		if !(nrm <= maxPruneNorm) {
			nrm = math.Inf(1)
		}
		ix.tmax = math.Max(ix.tmax, nrm)
	}
	ix.perm = make([]int32, n)
	for i := range ix.perm {
		ix.perm[i] = int32(i)
	}
	if d > 0 {
		sort.SliceStable(ix.perm, func(a, b int) bool {
			return rot[int(ix.perm[a])*d] < rot[int(ix.perm[b])*d]
		})
	}
	ix.rot = make([]float64, n*d)
	for k, i := range ix.perm {
		copy(ix.rot[k*d:(k+1)*d], rot[int(i)*d:(int(i)+1)*d])
	}
	return ix
}

// principalAxes returns the row-major principal axes of the training rows,
// in descending variance order, or nil (the identity) when there are too
// few rows to estimate a covariance or too many features to rotate.
func principalAxes(train *mat.Matrix) []float64 {
	if train == nil || train.Rows < 2 || train.Cols < 2 || train.Cols > maxPCADim {
		return nil
	}
	cov, err := mat.Covariance(train, true)
	if err != nil {
		return nil
	}
	_, vecs, err := mat.EigSym(cov)
	if err != nil {
		return nil
	}
	return vecs.T().Data
}

// orthoDefect returns ‖BBᵀ-I‖_F for the row-major d×d basis (0 for the
// identity).
func orthoDefect(basis []float64, d int) float64 {
	if basis == nil {
		return 0
	}
	sum := 0.0
	for a := 0; a < d; a++ {
		for b := 0; b < d; b++ {
			g := mat.Dot(basis[a*d:(a+1)*d], basis[b*d:(b+1)*d])
			if a == b {
				g--
			}
			sum += g * g
		}
	}
	return math.Sqrt(sum)
}

// rotate writes basis·v into dst. Training rows and queries go through this
// one function, so a query equal to a training row rotates bit-identically.
func (ix *featIndex) rotate(dst, v []float64) {
	if ix.basis == nil {
		copy(dst, v)
		return
	}
	d := ix.dim
	for m := range dst {
		axis := ix.basis[m*d : (m+1)*d]
		s := 0.0
		for j, x := range v {
			s += axis[j] * x
		}
		dst[m] = s
	}
}

// nearest is Distance's search. buf holds 2·dim scratch floats.
func (fs *FeatureStats) nearest(ix *featIndex, row, buf []float64) float64 {
	d := ix.dim
	if len(row) != d {
		panic("drift: feature row width does not match the calibration")
	}
	n := len(ix.perm)
	if n == 0 {
		return math.Inf(1)
	}
	z, q := buf[:d], buf[d:2*d]
	means, stds := fs.Means[:d], fs.Stds[:d]
	zz := 0.0
	for j, v := range row {
		zj := (v - means[j]) / stds[j]
		if math.IsNaN(zj) || math.IsInf(zj, 0) {
			// Every canonical score is NaN or +Inf, and neither ever
			// beats the brute-force scan's +Inf start.
			return math.Inf(1)
		}
		z[j] = zj
		zz += zj * zj
	}
	ix.rotate(q, z)
	abs := math.Inf(1)
	if scale := math.Sqrt(zz) + ix.tmax; scale <= maxPruneNorm {
		abs = ix.absPerNorm * scale
	}

	rot, q0 := ix.rot, q[0]
	lo, hi := 0, n // first sorted row with PC1 >= q0
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if rot[mid*d] < q0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	best, limit := math.Inf(1), math.Inf(1)
	up, down := lo, lo-1
	for up < n || down >= 0 {
		k := up
		if up == n || (down >= 0 && q0-rot[down*d] < rot[up*d]-q0) {
			k = down
		}
		p := rot[k*d : (k+1)*d]
		g := q0 - p[0]
		s := g * g
		if s > limit {
			// k is the nearer side in PC1, and rows are sorted by PC1:
			// every unvisited row on either side has at least this gap.
			break
		}
		if k == up {
			up++
		} else {
			down--
		}
		// Rotated partial sum in descending-variance order, checked
		// against the limit every four coordinates.
		m := 1
		for ; m+4 <= d && s <= limit; m += 4 {
			x0, x1, x2, x3 := q[m]-p[m], q[m+1]-p[m+1], q[m+2]-p[m+2], q[m+3]-p[m+3]
			s += x0*x0 + x1*x1 + x2*x2 + x3*x3
		}
		for ; m < d && s <= limit; m++ {
			x := q[m] - p[m]
			s += x * x
		}
		if s > limit {
			continue
		}
		// Canonical re-score: the brute-force scan's arithmetic, order and
		// early abandon, so best is always a value that scan computes.
		t := fs.Train.Row(int(ix.perm[k]))
		c := 0.0
		for j := range z {
			diff := z[j] - t[j]
			c += diff * diff
			if c >= best {
				break
			}
		}
		if c < best {
			best = c
			if best == 0 {
				return 0
			}
			r := (1+ix.rel)*math.Sqrt(best) + abs
			limit = r * r
		}
	}
	return math.Sqrt(best)
}
