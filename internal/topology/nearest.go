package topology

import "math"

// nearestGrid answers the generators' attach query — which candidate
// node is closest to this one — from a uniform grid over the candidates'
// bounding box, with about one candidate per cell. Its answer is the
// linear scan's: the candidate with the smallest Graph.Dist, ties to the
// lowest ID (candidates are in ascending ID order), and the first
// candidate when no distance is finite.
type nearestGrid struct {
	g     *Graph
	cands []NodeID
	// The grid covers [minX, minX+nx·cell) × [minY, minY+ny·cell); cell
	// (cx, cy) holds the ascending candidate indices cells[cy·nx+cx].
	// Candidates with a non-finite coordinate are left out: their
	// distance is never finite.
	minX, minY, cell float64
	nx, ny           int
	cells            [][]int
	// slack widens the pruning test by the rounding of the cell
	// arithmetic, which grows with the coordinates' magnitude.
	slack float64
}

func newNearestGrid(g *Graph, cands []NodeID) *nearestGrid {
	ng := &nearestGrid{g: g, cands: cands}
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	finite := 0
	for _, id := range cands {
		n := g.Node(id)
		if !finitePoint(n.X, n.Y) {
			continue
		}
		finite++
		minX, maxX = math.Min(minX, n.X), math.Max(maxX, n.X)
		minY, maxY = math.Min(minY, n.Y), math.Max(maxY, n.Y)
	}
	if finite == 0 {
		return ng
	}
	side := math.Ceil(math.Sqrt(float64(finite)))
	cell := math.Max(maxX-minX, maxY-minY) / side
	ng.nx, ng.ny, ng.cell = 1, 1, 1
	if cell > 0 && !math.IsInf(cell, 1) {
		ng.cell = cell
		ng.nx = int((maxX-minX)/cell) + 1
		ng.ny = int((maxY-minY)/cell) + 1
	}
	ng.minX, ng.minY = minX, minY
	scale := math.Max(math.Max(math.Abs(minX), math.Abs(maxX)), math.Max(math.Abs(minY), math.Abs(maxY)))
	ng.slack = 1e-9 * (1 + scale)
	ng.cells = make([][]int, ng.nx*ng.ny)
	for k, id := range cands {
		if n := g.Node(id); finitePoint(n.X, n.Y) {
			cx, cy := ng.cellXY(n.X, n.Y)
			ng.cells[cy*ng.nx+cx] = append(ng.cells[cy*ng.nx+cx], k)
		}
	}
	return ng
}

func finitePoint(x, y float64) bool {
	return !math.IsNaN(x) && !math.IsInf(x, 0) && !math.IsNaN(y) && !math.IsInf(y, 0)
}

// cellXY returns the cell holding (x, y), clamped into the grid; a NaN
// coordinate clamps to 0.
func (ng *nearestGrid) cellXY(x, y float64) (int, int) {
	return clampCell((x-ng.minX)/ng.cell, ng.nx), clampCell((y-ng.minY)/ng.cell, ng.ny)
}

func clampCell(t float64, n int) int {
	switch {
	case !(t >= 0):
		return 0
	case t >= float64(n-1):
		return n - 1
	default:
		return int(t)
	}
}

// nearest returns the candidate closest to node id. It scans the rings of
// cells around id's cell outward and stops once every unvisited cell lies
// farther than best·(1+1e-9) plus the slack: that margin covers the
// rounding of Graph.Dist and of the cell bounds, so no rounding can prune
// the argmin.
func (ng *nearestGrid) nearest(id NodeID) NodeID {
	best, bestK := math.Inf(1), -1
	visit := func(cx, cy int) {
		for _, k := range ng.cells[cy*ng.nx+cx] {
			if d := ng.g.Dist(id, ng.cands[k]); d < best || (d == best && k < bestK) {
				best, bestK = d, k
			}
		}
	}
	if ng.nx > 0 {
		p := ng.g.Node(id)
		bx, by := ng.cellXY(p.X, p.Y)
		for r := 0; ; r++ {
			x0, x1, y0, y1 := bx-r, bx+r, by-r, by+r
			for cy := max(y0, 0); cy <= min(y1, ng.ny-1); cy++ {
				if cy == y0 || cy == y1 {
					for cx := max(x0, 0); cx <= min(x1, ng.nx-1); cx++ {
						visit(cx, cy)
					}
					continue
				}
				if x0 >= 0 {
					visit(x0, cy)
				}
				if x1 < ng.nx {
					visit(x1, cy)
				}
			}
			// Every unvisited cell lies beyond one side of the visited
			// square that is not the grid's border.
			lb, open := math.Inf(1), false
			if x0 > 0 {
				lb, open = math.Min(lb, p.X-(ng.minX+float64(x0)*ng.cell)), true
			}
			if x1 < ng.nx-1 {
				lb, open = math.Min(lb, ng.minX+float64(x1+1)*ng.cell-p.X), true
			}
			if y0 > 0 {
				lb, open = math.Min(lb, p.Y-(ng.minY+float64(y0)*ng.cell)), true
			}
			if y1 < ng.ny-1 {
				lb, open = math.Min(lb, ng.minY+float64(y1+1)*ng.cell-p.Y), true
			}
			if !open || lb > best*(1+1e-9)+ng.slack {
				break
			}
		}
	}
	if bestK < 0 {
		return ng.cands[0]
	}
	return ng.cands[bestK]
}
