package spam

import (
	"math"

	"spampsm/internal/geom"
	"spampsm/internal/scene"
)

// gridMinFragments is the pool size below which the uniform grid is
// not worth building: the linear scan over a handful of fragments is
// already cheaper than constructing cells.
const gridMinFragments = 24

// fragIndex is a uniform-grid spatial index over one fragment pool,
// built once per LCC decomposition and queried for every (focal,
// constraint) partner search, replacing the all-fragments scan of
// NearbyFragments. Queries return exactly NearbyFragments' output:
// the grid only narrows the candidate set, and the surviving
// candidates pass through the identical ID/type/bbox filters in the
// identical pool order.
//
// The index is used single-threaded: poolQuery builds it and the
// decomposition issues every query before any task closure runs, so it needs no
// locking and its query scratch state is reusable.
type fragIndex struct {
	store      *RegionStore
	all        []*Fragment
	minX, minY float64
	cellW      float64
	cellH      float64
	cols, rows int
	// cells is partitioned by fragment kind: a partner search wants
	// exactly one kind, so gathering from the wanted kind's cell
	// table skips every other fragment up front — the same early type
	// filter the linear scan applies, paid once at build time.
	cells map[scene.Kind][][]int32 // kind -> cell -> ascending indices into all

	// Per-pool-index region bboxes, resolved once at build time so
	// queries never touch the store's maps. ok[i] is false for
	// fragments whose region is unknown (the scan skips those too).
	bbs []geom.Rect
	ok  []bool

	// Epoch-stamp dedupe scratch: mark[i] == gen means pool index i
	// was gathered by the current query.
	mark []uint32
	gen  uint32
}

// buildFragIndex indexes a fragment pool, or returns nil when the
// scan path should be used (uncached-geo mode, or a pool too small to
// amortize construction). A nil index is valid: poolQuery falls back
// to NearbyFragments.
func buildFragIndex(store *RegionStore, all []*Fragment) *fragIndex {
	if uncachedGeo.Load() || len(all) < gridMinFragments {
		return nil
	}
	// Union bbox of the pool's regions.
	first := true
	var union geom.Rect
	bbs := make([]geom.Rect, len(all))
	ok := make([]bool, len(all))
	for i, f := range all {
		d := store.Derived(f.RegionID)
		if d == nil {
			continue
		}
		bbs[i] = d.BBox
		ok[i] = true
		if first {
			union = d.BBox
			first = false
			continue
		}
		union.Min.X = math.Min(union.Min.X, d.BBox.Min.X)
		union.Min.Y = math.Min(union.Min.Y, d.BBox.Min.Y)
		union.Max.X = math.Max(union.Max.X, d.BBox.Max.X)
		union.Max.Y = math.Max(union.Max.Y, d.BBox.Max.Y)
	}
	if first {
		return nil // no resolvable regions
	}
	w, h := union.W(), union.H()
	if w <= 0 && h <= 0 {
		return nil // degenerate pool, scan is fine
	}
	// ~√n cells per axis keeps expected occupancy O(1) per cell for
	// uniformly spread regions; clamped so pathological pools cannot
	// explode the cell table.
	side := int(math.Ceil(math.Sqrt(float64(len(all)))))
	if side < 1 {
		side = 1
	}
	if side > 128 {
		side = 128
	}
	ix := &fragIndex{
		store: store,
		all:   all,
		minX:  union.Min.X,
		minY:  union.Min.Y,
		cols:  side,
		rows:  side,
		cellW: w / float64(side),
		cellH: h / float64(side),
		bbs:   bbs,
		ok:    ok,
		mark:  make([]uint32, len(all)),
	}
	if ix.cellW <= 0 {
		ix.cols = 1
		ix.cellW = 1
	}
	if ix.cellH <= 0 {
		ix.rows = 1
		ix.cellH = 1
	}
	ix.cells = map[scene.Kind][][]int32{}
	for i, f := range all {
		if !ok[i] {
			continue
		}
		kc := ix.cells[f.Type]
		if kc == nil {
			kc = make([][]int32, ix.cols*ix.rows)
			ix.cells[f.Type] = kc
		}
		c0, r0, c1, r1 := ix.cellRange(bbs[i])
		for r := r0; r <= r1; r++ {
			for c := c0; c <= c1; c++ {
				cell := r*ix.cols + c
				kc[cell] = append(kc[cell], int32(i))
			}
		}
	}
	return ix
}

// cellRange maps a bbox to the clamped inclusive cell-coordinate
// rectangle it overlaps.
func (ix *fragIndex) cellRange(bb geom.Rect) (c0, r0, c1, r1 int) {
	c0 = clampCell(int(math.Floor((bb.Min.X-ix.minX)/ix.cellW)), ix.cols)
	c1 = clampCell(int(math.Floor((bb.Max.X-ix.minX)/ix.cellW)), ix.cols)
	r0 = clampCell(int(math.Floor((bb.Min.Y-ix.minY)/ix.cellH)), ix.rows)
	r1 = clampCell(int(math.Floor((bb.Max.Y-ix.minY)/ix.cellH)), ix.rows)
	return
}

func clampCell(v, n int) int {
	if v < 0 {
		return 0
	}
	if v >= n {
		return n - 1
	}
	return v
}

// query returns the constraint's candidate partners — byte-identical
// to NearbyFragments(store, focal, want, all, radius) over the
// indexed pool.
func (ix *fragIndex) query(focal *Fragment, want scene.Kind, radius float64) []*Fragment {
	fd := ix.store.Derived(focal.RegionID)
	if fd == nil {
		return nil
	}
	bb := fd.BBox.Expand(radius)
	kc := ix.cells[want]
	if kc == nil {
		return nil // no fragment of the wanted kind in the pool
	}
	ix.gen++
	if ix.gen == 0 { // epoch counter wrapped: flush stale marks
		clear(ix.mark)
		ix.gen = 1
	}
	gen := ix.gen
	c0, r0, c1, r1 := ix.cellRange(bb)
	lo, hi := int32(len(ix.all)), int32(-1)
	for r := r0; r <= r1; r++ {
		for c := c0; c <= c1; c++ {
			for _, i := range kc[r*ix.cols+c] {
				ix.mark[i] = gen
				if i < lo {
					lo = i
				}
				if i > hi {
					hi = i
				}
			}
		}
	}
	// Walk the marked pool indices in ascending order: identical
	// filters and output ordering to the linear scan, restricted to
	// the gathered candidates (all of the wanted kind already).
	var out []*Fragment
	for i := lo; i <= hi; i++ {
		if ix.mark[i] != gen {
			continue
		}
		f := ix.all[i]
		if f.ID == focal.ID {
			continue
		}
		if bb.Intersects(ix.bbs[i]) {
			out = append(out, f)
		}
	}
	return out
}
