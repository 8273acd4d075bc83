package lagraph

import "lagraph/internal/grb"

// Pseudo-diameter estimation by double-sweep BFS (a standard LAGraph
// utility): run a BFS from a start vertex, hop to the farthest vertex
// found, and repeat until the eccentricity estimate stops growing. The
// result is a lower bound on the true diameter, exact on trees.

// PseudoDiameter returns the estimated diameter of the component
// containing start, together with the two endpoint vertices of the
// realizing path.
func PseudoDiameter(g *Graph, start int, maxSweeps int) (diameter int32, from, to int, err error) {
	defer catch(&err)
	try(g.checkSource(start))
	if maxSweeps <= 0 {
		maxSweeps = 8
	}
	// a sweeps from, b is the far end found; both stay local so an error
	// returns zero endpoints.
	a, b := start, 0
	best := int32(-1)
	for sweep := 0; sweep < maxSweeps; sweep++ {
		levels, err := BFSLevels(g, a)
		try(err)
		ecc, err := grb.ReduceVectorToScalar(grb.MaxMonoid[int32](), levels)
		try(err)
		// Find a vertex at maximum level.
		far := a
		li, lx := levels.ExtractTuples()
		for k := range li {
			if lx[k] == ecc {
				far = li[k]
				break
			}
		}
		if ecc <= best {
			return best, a, b, nil
		}
		best = ecc
		b = far
		if sweep+1 < maxSweeps {
			a, b = far, a
		}
	}
	return best, b, a, nil
}

// Eccentricity returns the BFS eccentricity of a vertex (the maximum
// level of any reachable vertex).
func Eccentricity(g *Graph, v int) (_ int32, err error) {
	defer catch(&err)
	levels, err := BFSLevels(g, v)
	try(err)
	return grb.ReduceVectorToScalar(grb.MaxMonoid[int32](), levels)
}
