// Package bvh provides a bounding-volume hierarchy over weighted boxes,
// used to accelerate selectivity estimation for histogram models with many
// buckets.
//
// A flat histogram evaluates Σⱼ vol(Bⱼ∩R)/vol(Bⱼ)·wⱼ in O(m) per query.
// The BVH stores subtree weight sums, so a query that fully contains a
// subtree's bounding box adds the cached sum in O(1), and disjoint
// subtrees are skipped entirely; only buckets straddling the query
// boundary are evaluated individually. For the quadtree-partition models
// of this repository that reduces per-query work from O(m) to roughly
// O(√m) in 2D (the boundary buckets), which the prediction-time experiment
// (ext_predtime) measures.
//
// The same structure serves any model whose buckets are boxes with
// nonnegative weights — QUADHIST, ISOMER and QUICKSEL alike (overlapping
// buckets are fine: the sum is over buckets, not over space).
package bvh

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/geom"
)

// maxLeafSize is the bucket count below which a node stays a leaf.
const maxLeafSize = 8

// Tree is an immutable BVH over weighted box buckets, stored in a flat
// structure-of-arrays layout: node bounding boxes, child links, leaf
// windows, and bucket corners all live in contiguous slices indexed by
// node or bucket id, so a query walk streams through a few dense arrays
// instead of chasing per-node pointers into scattered allocations. Box
// queries additionally take a specialized walk that classifies nodes and
// buckets with inline coordinate comparisons — no interface dispatch per
// node.
//
// Subtree weight sums are stored out-of-line in a slice indexed by node id
// rather than next to the geometry, so a tree can be reweighted without
// rebuilding: Reweight shares every structure array (node boxes, links,
// leaf windows, bucket geometry, precomputed inverse volumes), allocating
// only a new weight vector's worth of cached sums. The online-learning
// fast path (internal/online) publishes one such structurally-shared tree
// per feedback update.
type Tree struct {
	dim int
	// Node arrays, indexed by node id. Ids are assigned in build order
	// (pre-order), so children always have larger ids than their parent —
	// which is what lets sumWeights run as one reverse sweep.
	nlo, nhi    []float64 // node bounding boxes, dim coords per node
	left, right []int32   // child node ids, -1 at leaves
	loff, lcnt  []int32   // a leaf's window [loff, loff+lcnt) into leafIdx
	leafIdx     []int32   // bucket ids; each leaf's window is contiguous
	// Bucket geometry flattened alongside the originals: blo/bhi mirror
	// buckets[j].Lo/Hi at offset j*dim, kept so the leaf loops read
	// contiguous memory instead of slice-of-slice corners.
	blo, bhi []float64

	buckets []geom.Box
	weights []float64
	invVols []float64
	wsums   []float64 // subtree weight sums, indexed by node id
}

// Build constructs a BVH over the buckets with the given weights. The
// slices are captured, not copied; callers must not mutate them afterward.
func Build(buckets []geom.Box, weights []float64) *Tree {
	if len(buckets) != len(weights) {
		panic("bvh: buckets/weights length mismatch")
	}
	t := &Tree{buckets: buckets, weights: weights}
	t.invVols = make([]float64, len(buckets))
	for j, b := range buckets {
		if v := b.Volume(); v > 0 {
			t.invVols[j] = 1 / v
		}
	}
	if len(buckets) == 0 {
		return t
	}
	d := buckets[0].Dim()
	t.dim = d
	t.blo = make([]float64, len(buckets)*d)
	t.bhi = make([]float64, len(buckets)*d)
	for j, b := range buckets {
		copy(t.blo[j*d:(j+1)*d], b.Lo)
		copy(t.bhi[j*d:(j+1)*d], b.Hi)
	}
	idx := make([]int32, len(buckets))
	for i := range idx {
		idx[i] = int32(i)
	}
	t.leafIdx = make([]int32, 0, len(buckets))
	t.build(idx)
	t.wsums = make([]float64, t.numNodes())
	t.sumWeights()
	return t
}

func (t *Tree) numNodes() int { return len(t.left) }

// build appends the subtree over idx to the node arrays and returns its id.
// Ids and the split rule (widest dimension, median bucket center) are
// identical to the historical pointer-tree builder, so trees built from the
// same buckets have the same shape they always had.
func (t *Tree) build(idx []int32) int32 {
	d := t.dim
	id := int32(len(t.left))
	off := int(id) * d
	t.nlo = append(t.nlo, t.blo[int(idx[0])*d:(int(idx[0])+1)*d]...)
	t.nhi = append(t.nhi, t.bhi[int(idx[0])*d:(int(idx[0])+1)*d]...)
	nlo := t.nlo[off : off+d]
	nhi := t.nhi[off : off+d]
	for _, j := range idx[1:] {
		bo := int(j) * d
		for i := 0; i < d; i++ {
			nlo[i] = min(nlo[i], t.blo[bo+i])
			nhi[i] = max(nhi[i], t.bhi[bo+i])
		}
	}
	t.left = append(t.left, -1)
	t.right = append(t.right, -1)
	t.loff = append(t.loff, 0)
	t.lcnt = append(t.lcnt, 0)
	if len(idx) <= maxLeafSize {
		t.loff[id] = int32(len(t.leafIdx))
		t.lcnt[id] = int32(len(idx))
		t.leafIdx = append(t.leafIdx, idx...)
		return id
	}
	// Split along the widest dimension at the median bucket center.
	axis := 0
	widest := nhi[0] - nlo[0]
	for i := 1; i < d; i++ {
		if w := nhi[i] - nlo[i]; w > widest {
			widest, axis = w, i
		}
	}
	sort.Slice(idx, func(a, b int) bool {
		ca := t.blo[int(idx[a])*d+axis] + t.bhi[int(idx[a])*d+axis]
		cb := t.blo[int(idx[b])*d+axis] + t.bhi[int(idx[b])*d+axis]
		return ca < cb
	})
	mid := len(idx) / 2
	// nlo/nhi are stale after the recursive appends; they are not used
	// again below.
	lo := t.build(idx[:mid])
	hi := t.build(idx[mid:])
	t.left[id] = lo
	t.right[id] = hi
	return id
}

// Reweight returns a tree over the same buckets with a new weight vector:
// every structure array — node boxes, child links, leaf windows, bucket
// geometry, and inverse volumes — is shared with the receiver (they are
// immutable), while the weights and the per-node sums are recomputed. Cost
// is one O(m) pass — no sorting, no tree building — which is what makes
// copy-on-write weight publication cheap enough for the per-feedback
// online update path. w is captured, not copied; callers must not mutate
// it afterward.
func (t *Tree) Reweight(w []float64) *Tree {
	if len(w) != len(t.buckets) {
		panic("bvh: Reweight weight count mismatch")
	}
	nt := &Tree{
		dim:     t.dim,
		nlo:     t.nlo,
		nhi:     t.nhi,
		left:    t.left,
		right:   t.right,
		loff:    t.loff,
		lcnt:    t.lcnt,
		leafIdx: t.leafIdx,
		blo:     t.blo,
		bhi:     t.bhi,
		buckets: t.buckets,
		weights: w,
		invVols: t.invVols,
	}
	if n := nt.numNodes(); n > 0 {
		nt.wsums = make([]float64, n)
		nt.sumWeights()
	}
	return nt
}

// sumWeights fills wsums for every node in one reverse sweep: children
// have larger ids than their parent, so by the time a parent is reached
// both subtree sums are ready. Leaf sums add bucket weights in leaf-window
// order and parents add left+right — exactly the post-order recursion the
// pointer tree used, so reweighted trees produce byte-identical sums for a
// given weight vector.
func (t *Tree) sumWeights() {
	for id := t.numNodes() - 1; id >= 0; id-- {
		if t.left[id] < 0 {
			s := 0.0
			for _, j := range t.leafIdx[t.loff[id] : t.loff[id]+t.lcnt[id]] {
				s += t.weights[j]
			}
			t.wsums[id] = s
			continue
		}
		t.wsums[id] = t.wsums[t.left[id]] + t.wsums[t.right[id]]
	}
}

// Len returns the number of indexed buckets.
func (t *Tree) Len() int { return len(t.buckets) }

// Weights returns the tree's weight vector. Callers must not mutate it.
func (t *Tree) Weights() []float64 { return t.weights }

// Estimate returns Σⱼ vol(Bⱼ∩R)/vol(Bⱼ)·wⱼ over all indexed buckets,
// clamped to [0,1]. Box queries (by value or pointer — the serving wire
// path passes pooled *geom.Box) take the specialized coordinate walk; all
// other range classes go through the generic classifier.
func (t *Tree) Estimate(r geom.Range) float64 {
	if t.numNodes() == 0 {
		return 0
	}
	var s float64
	switch q := r.(type) {
	case geom.Box:
		s = t.estimateBox(0, q.Lo, q.Hi)
	case *geom.Box:
		s = t.estimateBox(0, q.Lo, q.Hi)
	default:
		s = t.estimate(0, r)
	}
	if s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}

// estimateBox is the box-query walk: node and bucket classification are
// inline float comparisons over the flat coordinate arrays. The recursion
// structure (left subtree + right subtree) and the per-leaf term order
// match the generic walk exactly, so both produce the same float results.
func (t *Tree) estimateBox(id int32, qlo, qhi geom.Point) float64 {
	wsum := t.wsums[id]
	if wsum == 0 {
		return 0
	}
	d := t.dim
	off := int(id) * d
	nlo := t.nlo[off : off+d]
	nhi := t.nhi[off : off+d]
	contained := true
	for i := 0; i < d; i++ {
		if qlo[i] > nhi[i] || nlo[i] > qhi[i] {
			return 0 // disjoint
		}
		if nlo[i] < qlo[i] || nhi[i] > qhi[i] {
			contained = false
		}
	}
	if contained {
		return wsum
	}
	if t.left[id] < 0 {
		s := 0.0
		for _, j := range t.leafIdx[t.loff[id] : t.loff[id]+t.lcnt[id]] {
			w := t.weights[j]
			if w == 0 {
				continue
			}
			bo := int(j) * d
			blo := t.blo[bo : bo+d]
			bhi := t.bhi[bo : bo+d]
			// One pass classifies the bucket and accumulates the
			// intersection volume, mirroring geom.ClassifyBox +
			// IntersectBoxVolume: disjoint skips, contained adds the
			// full weight (zero-volume buckets behave like point
			// masses), straddling pays vol·invVol·w.
			vol := 1.0
			cont, zero := true, false
			for i := 0; i < d; i++ {
				bl, bh := blo[i], bhi[i]
				if qlo[i] > bh || bl > qhi[i] {
					cont, zero = false, true
					break
				}
				if bl < qlo[i] || bh > qhi[i] {
					cont = false
				}
				side := min(bh, qhi[i]) - max(bl, qlo[i])
				if side <= 0 {
					zero = true
				} else {
					vol *= side
				}
			}
			switch {
			case cont:
				s += w
			case !zero && t.invVols[j] != 0:
				s += vol * t.invVols[j] * w
			}
		}
		return s
	}
	return t.estimateBox(t.left[id], qlo, qhi) + t.estimateBox(t.right[id], qlo, qhi)
}

// nodeBox returns node id's bounding box as a view over the flat arrays
// (no allocation; the windows are immutable).
func (t *Tree) nodeBox(id int32) geom.Box {
	off := int(id) * t.dim
	return geom.Box{
		Lo: geom.Point(t.nlo[off : off+t.dim : off+t.dim]),
		Hi: geom.Point(t.nhi[off : off+t.dim : off+t.dim]),
	}
}

func (t *Tree) estimate(id int32, r geom.Range) float64 {
	wsum := t.wsums[id]
	if wsum == 0 {
		return 0
	}
	switch geom.ClassifyBox(r, t.nodeBox(id)) {
	case geom.BoxDisjoint:
		return 0
	case geom.BoxContained:
		return wsum
	}
	if t.left[id] < 0 {
		s := 0.0
		for _, j := range t.leafIdx[t.loff[id] : t.loff[id]+t.lcnt[id]] {
			w := t.weights[j]
			if w == 0 {
				continue
			}
			switch geom.ClassifyBox(r, t.buckets[j]) {
			case geom.BoxDisjoint:
			case geom.BoxContained:
				// Zero-volume buckets behave like point masses: they
				// contribute fully when contained (matching the flat
				// model semantics) and nothing on partial overlap.
				s += w
			default:
				if t.invVols[j] != 0 {
					s += r.IntersectBoxVolume(t.buckets[j]) * t.invVols[j] * w
				}
			}
		}
		return s
	}
	return t.estimate(t.left[id], r) + t.estimate(t.right[id], r)
}

// ForEachOverlap calls fn(j, frac) for every bucket j with nonzero
// fractional coverage frac = vol(Bⱼ∩R)/vol(Bⱼ) (1 for contained buckets,
// point-mass convention for zero-volume ones). It is the sparse row of the
// design matrix the online-learning update rules need: disjoint subtrees
// are pruned, contained subtrees enumerate without further classification,
// and only boundary buckets pay for an intersection volume. Enumeration
// order is fixed by the tree structure, so consumers are deterministic.
func (t *Tree) ForEachOverlap(r geom.Range, fn func(j int, frac float64)) {
	if t.numNodes() > 0 {
		t.overlap(0, r, false, fn)
	}
}

func (t *Tree) overlap(id int32, r geom.Range, contained bool, fn func(j int, frac float64)) {
	if !contained {
		switch geom.ClassifyBox(r, t.nodeBox(id)) {
		case geom.BoxDisjoint:
			return
		case geom.BoxContained:
			contained = true
		}
	}
	if t.left[id] < 0 {
		for _, j := range t.leafIdx[t.loff[id] : t.loff[id]+t.lcnt[id]] {
			if contained {
				fn(int(j), 1)
				continue
			}
			switch geom.ClassifyBox(r, t.buckets[j]) {
			case geom.BoxDisjoint:
			case geom.BoxContained:
				fn(int(j), 1)
			default:
				if t.invVols[j] != 0 {
					if frac := r.IntersectBoxVolume(t.buckets[j]) * t.invVols[j]; frac > 0 {
						fn(int(j), frac)
					}
				}
			}
		}
		return
	}
	t.overlap(t.left[id], r, contained, fn)
	t.overlap(t.right[id], r, contained, fn)
}

// ForEachOverlapFlat is the O(m) reference of ForEachOverlap, used by
// models below the indexing threshold (and by the property tests as
// ground truth). Buckets are visited in index order.
func ForEachOverlapFlat(buckets []geom.Box, r geom.Range, fn func(j int, frac float64)) {
	for j, b := range buckets {
		switch geom.ClassifyBox(r, b) {
		case geom.BoxDisjoint:
		case geom.BoxContained:
			fn(j, 1)
		default:
			if v := b.Volume(); v > 0 {
				if frac := r.IntersectBoxVolume(b) / v; frac > 0 {
					fn(j, frac)
				}
			}
		}
	}
}

// EstimateFlat is the O(m) reference kernel the tree accelerates:
// Σⱼ vol(Bⱼ∩R)/vol(Bⱼ)·wⱼ clamped to [0,1]. It is the single flat
// implementation shared by every box-bucketed model below the indexing
// threshold, and the ground truth the BVH property tests compare against.
func EstimateFlat(buckets []geom.Box, weights []float64, r geom.Range) float64 {
	s := 0.0
	for j, b := range buckets {
		w := weights[j]
		if w == 0 {
			continue
		}
		switch geom.ClassifyBox(r, b) {
		case geom.BoxDisjoint:
		case geom.BoxContained:
			s += w
		default:
			if v := b.Volume(); v > 0 {
				s += r.IntersectBoxVolume(b) / v * w
			}
		}
	}
	if s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}

// IndexThreshold is the bucket count at which box-bucketed models switch
// from the flat kernel to a BVH walk. Below it the flat scan's tight loop
// beats the tree walk; above it the walk touches only the O(√m) boundary
// buckets. The crossover was measured with the root package's
// BenchmarkEstimatePath (flat vs BVH at each bucket count).
const IndexThreshold = 64

// Lazy is a lazily-built, immutably-shared BVH over a fixed bucket set.
// The zero value is ready for use; the first Ensure (or Seed) call installs
// the tree exactly once (sync.Once), after which the same *Tree is shared
// by every concurrent reader. Models embed a Lazy so Estimate stays safe
// for any number of goroutines while never rebuilding the index.
type Lazy struct {
	once sync.Once
	tree atomic.Pointer[Tree]
}

// Ensure returns the shared tree for the given buckets/weights, building
// it on first call if the bucket count is at least IndexThreshold, and nil
// otherwise (callers fall back to EstimateFlat). The slices are captured
// by the built tree; callers must not mutate them afterwards — the same
// immutability the core.Model concurrency contract already demands.
func (l *Lazy) Ensure(buckets []geom.Box, weights []float64) *Tree {
	if len(buckets) < IndexThreshold {
		return nil
	}
	l.once.Do(func() { l.tree.Store(Build(buckets, weights)) })
	return l.tree.Load()
}

// Seed installs a prebuilt tree as this Lazy's index, winning only if no
// index has been built yet. The copy-on-write publication path uses it so
// a reweighted model starts life with its structurally-shared tree already
// in place — the subsequent Ensure/Accelerate is then a no-op instead of a
// full rebuild.
func (l *Lazy) Seed(t *Tree) {
	l.once.Do(func() { l.tree.Store(t) })
}

// Built returns the index if one has been built or seeded, and nil
// otherwise. It never triggers a build.
func (l *Lazy) Built() *Tree { return l.tree.Load() }

// Raw is a Tree's complete structural state as flat arrays, for
// serialization: every field maps one-to-one onto a Tree's internal
// structure-of-arrays layout, so a snapshot can store the arrays verbatim
// and a load can rebuild the index without re-running the builder (no
// sorting, no recursion, no weight sweep). Buckets and weights are not
// part of Raw — they belong to the owning model and are passed separately
// to FromRaw, which shares them exactly like Build does.
type Raw struct {
	Dim         int
	NLo, NHi    []float64 // node bounding boxes, Dim coords per node
	Left, Right []int32   // child node ids, -1 at leaves
	LOff, LCnt  []int32   // leaf windows into LeafIdx
	LeafIdx     []int32   // bucket ids, each leaf's window contiguous
	InvVols     []float64 // per-bucket inverse volumes (0 for zero-volume)
	WSums       []float64 // subtree weight sums, indexed by node id
}

// Raw exports the tree's structural arrays. The returned slices alias the
// tree's internals (both are immutable); callers must not mutate them.
func (t *Tree) Raw() Raw {
	return Raw{
		Dim:     t.dim,
		NLo:     t.nlo,
		NHi:     t.nhi,
		Left:    t.left,
		Right:   t.right,
		LOff:    t.loff,
		LCnt:    t.lcnt,
		LeafIdx: t.leafIdx,
		InvVols: t.invVols,
		WSums:   t.wsums,
	}
}

// FromRaw reconstructs a Tree from exported structural arrays plus the
// owning model's buckets and weights, validating every cross-reference so
// corrupt or adversarial input yields an error instead of a tree whose
// walks read out of bounds. All slices (including blo/bhi, which callers
// typically alias into the same backing store as the bucket corners) are
// captured, not copied.
func FromRaw(r Raw, buckets []geom.Box, weights []float64, blo, bhi []float64) (*Tree, error) {
	m, n := len(buckets), len(r.Left)
	d := r.Dim
	switch {
	case len(weights) != m:
		return nil, fmt.Errorf("bvh: %d buckets but %d weights", m, len(weights))
	case len(r.InvVols) != m:
		return nil, fmt.Errorf("bvh: %d buckets but %d invVols", m, len(r.InvVols))
	case n == 0 && m > 0, d <= 0 && n > 0:
		return nil, fmt.Errorf("bvh: empty tree over %d buckets", m)
	case len(r.Right) != n || len(r.LOff) != n || len(r.LCnt) != n || len(r.WSums) != n:
		return nil, fmt.Errorf("bvh: node array lengths disagree")
	case len(r.NLo) != n*d || len(r.NHi) != n*d:
		return nil, fmt.Errorf("bvh: node box arrays want %d coords, have %d/%d", n*d, len(r.NLo), len(r.NHi))
	case len(r.LeafIdx) > m:
		return nil, fmt.Errorf("bvh: leafIdx longer than bucket count")
	case len(blo) != m*d || len(bhi) != m*d:
		return nil, fmt.Errorf("bvh: bucket corner arrays want %d coords, have %d/%d", m*d, len(blo), len(bhi))
	}
	for id := 0; id < n; id++ {
		l, rgt := r.Left[id], r.Right[id]
		if (l < 0) != (rgt < 0) {
			return nil, fmt.Errorf("bvh: node %d has one child", id)
		}
		if l < 0 {
			off, cnt := r.LOff[id], r.LCnt[id]
			if cnt < 0 || off < 0 || int(off)+int(cnt) > len(r.LeafIdx) {
				return nil, fmt.Errorf("bvh: node %d leaf window out of range", id)
			}
			continue
		}
		// Pre-order ids: children strictly after the parent keeps the
		// reverse weight sweep and walk recursion acyclic.
		if int(l) <= id || int(rgt) <= id || int(l) >= n || int(rgt) >= n {
			return nil, fmt.Errorf("bvh: node %d has out-of-order children %d/%d", id, l, rgt)
		}
	}
	for _, j := range r.LeafIdx {
		if j < 0 || int(j) >= m {
			return nil, fmt.Errorf("bvh: leafIdx entry %d out of range", j)
		}
	}
	return &Tree{
		dim:     d,
		nlo:     r.NLo,
		nhi:     r.NHi,
		left:    r.Left,
		right:   r.Right,
		loff:    r.LOff,
		lcnt:    r.LCnt,
		leafIdx: r.LeafIdx,
		blo:     blo,
		bhi:     bhi,
		buckets: buckets,
		weights: weights,
		invVols: r.InvVols,
		wsums:   r.WSums,
	}, nil
}
