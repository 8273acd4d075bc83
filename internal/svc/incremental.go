package svc

import (
	"errors"
	"fmt"
	"strings"

	"lagraph/internal/catalog"
	"lagraph/internal/grb"
	"lagraph/internal/lagraph"
)

// Query modes for the incremental-capable algorithms (bfs, cc,
// pagerank). Full is the default and what every other algorithm always
// runs; incremental warm-starts from the entry's prior-result cache and
// falls back to full when no sound prior exists; verify runs BOTH modes
// in one request and fails the request unless they agree — the
// server-side arm of the equivalence battery, and the only way to assert
// float (pagerank) equivalence over HTTP, where a warm checksum is
// legitimately a few ulps away from the full one.
const (
	modeFull        = "full"
	modeIncremental = "incremental"
	modeVerify      = "verify"
)

// errEquivalence reports a verify-mode divergence: the warm-started
// result did not match the full recompute. This is a service invariant
// violation, never a client mistake.
var errEquivalence = errors.New("svc: incremental result diverged from full recompute")

// normalizeMode validates QueryRequest.Mode.
func normalizeMode(m string) (string, error) {
	switch strings.ToLower(m) {
	case "", modeFull:
		return modeFull, nil
	case modeIncremental:
		return modeIncremental, nil
	case modeVerify:
		return modeVerify, nil
	}
	return "", fmt.Errorf("%w: unknown mode %q (want full | incremental | verify)", errBadRequest, m)
}

// IncrementalInfo annotates a query response with how the incremental
// machinery answered it.
type IncrementalInfo struct {
	// ModeUsed is "incremental" when a warm start produced the answer,
	// "full" otherwise (requested, fallen back to, or the algorithm has
	// no incremental variant).
	ModeUsed string `json:"mode_used"`
	// WarmStartGeneration is the graph generation of the prior result
	// that seeded the warm start.
	WarmStartGeneration uint64 `json:"warm_start_generation,omitempty"`
	// IterationsSaved is the full-run iteration baseline minus the warm
	// run's iterations, clamped at zero. In verify mode the baseline is
	// the full run executed in this very request; otherwise it is the
	// cached lineage's last full run.
	IterationsSaved int `json:"iterations_saved,omitempty"`
	// FallbackReason explains a ModeUsed="full" answer to a
	// mode=incremental request: no_prior_result, delta_untracked,
	// delta_has_removals, prior_invalid, algo_not_incremental.
	FallbackReason string `json:"fallback_reason,omitempty"`
	// Exact marks algorithms whose warm answer is bitwise-identical to a
	// full recompute (cc, bfs); pagerank agrees to tolerance instead.
	Exact bool `json:"exact,omitempty"`
	// Verify carries the verify-mode comparison.
	Verify *VerifyInfo `json:"verify,omitempty"`
}

// VerifyInfo is the verify-mode equivalence report.
type VerifyInfo struct {
	Equivalent bool `json:"equivalent"`
	// L1Diff/Bound are set for tolerance-level algorithms (pagerank):
	// the measured ‖warm-full‖₁ and the contraction bound it must stay
	// under, 2·damping·tol/(1-damping).
	L1Diff float64 `json:"l1_diff,omitempty"`
	Bound  float64 `json:"bound,omitempty"`
}

// incAlgo adapts one incremental-capable algorithm to the generic
// runner. full and warm return the cacheable result value plus the
// iteration count; warm returns lagraph.ErrStalePrior when the prior
// cannot seed it and the runner falls back.
type incAlgo struct {
	key   string
	exact bool
	full  func(g *lagraph.Graph) (any, int, error)
	warm  func(g *lagraph.Graph, prior catalog.CachedResult, delta *lagraph.Delta) (any, int, error)
	// finish renders a result value into the response (Result map +
	// Checksum).
	finish func(resp *QueryResponse, v any)
	// l1 + l1Bound implement verify-mode comparison for tolerance-level
	// algorithms; nil l1 selects bitwise checksum comparison.
	l1      func(a, b any) float64
	l1Bound float64
}

// runIncAlgo executes one incremental-capable algorithm under the mode
// protocol. It runs inside e.View (g is the warmed graph, the read lock
// is held) — the prior-result cache and delta log are safe to touch
// here, and the generation cannot move under us.
func (s *Server) runIncAlgo(e *catalog.Entry, g *lagraph.Graph, mode string, a incAlgo, resp *QueryResponse) error {
	gen := e.Generation()
	info := &IncrementalInfo{ModeUsed: modeFull}
	resp.Incremental = info
	var prior catalog.CachedResult
	var warmV any
	var warmIters int
	if mode != modeFull {
		var ok bool
		if prior, ok = e.PriorResult(a.key); !ok {
			info.FallbackReason = "no_prior_result"
		} else {
			delta := e.DeltaSince(prior.Generation)
			v, iters, err := a.warm(g, prior, delta)
			switch {
			case err == nil:
				warmV, warmIters = v, iters
			case errors.Is(err, lagraph.ErrStalePrior):
				info.FallbackReason = staleReason(delta)
			default:
				return err
			}
		}
	}

	// v becomes the cached result, and fullIters the full-run iteration
	// count its lineage carries forward.
	v, fullIters := warmV, prior.FullIters
	if warmV == nil {
		// A full run, requested or fallen back to. It primes the cache,
		// so the next incremental query on this key warm-starts.
		var err error
		if v, fullIters, err = a.full(g); err != nil {
			return err
		}
		s.incFull.Add(1)
		if mode != modeFull {
			s.incFallbacks.Add(1)
		}
	} else {
		info.ModeUsed = modeIncremental
		info.WarmStartGeneration = prior.Generation
		info.Exact = a.exact
		if mode == modeVerify {
			// Verify responses carry the FULL result: its checksum is the
			// deterministic one, stable across restarts and cluster nodes.
			fullV, iters, err := a.full(g)
			if err != nil {
				return err
			}
			if info.Verify, err = a.verify(warmV, fullV); err != nil {
				return err
			}
			v, fullIters = fullV, iters
		}
		saved := max(fullIters-warmIters, 0)
		info.IterationsSaved = saved
		s.incWarm.Add(1)
		s.incItersSaved.Add(int64(saved))
	}
	e.StoreResult(a.key, catalog.CachedResult{Value: v, Generation: gen, FullIters: fullIters})
	a.finish(resp, v)
	return nil
}

// verify compares a warm answer with the full one: an exact algorithm's
// tuple streams must be bitwise identical, which the FNV checksum
// witnesses; the others must agree within the contraction bound.
func (a incAlgo) verify(warmV, fullV any) (*VerifyInfo, error) {
	vi := &VerifyInfo{}
	if a.l1 == nil {
		var wr, fr QueryResponse
		a.finish(&wr, warmV)
		a.finish(&fr, fullV)
		if vi.Equivalent = wr.Checksum == fr.Checksum; !vi.Equivalent {
			return vi, fmt.Errorf("%w: %s checksums warm=%s full=%s", errEquivalence, a.key, wr.Checksum, fr.Checksum)
		}
		return vi, nil
	}
	vi.L1Diff, vi.Bound = a.l1(warmV, fullV), a.l1Bound
	if vi.Equivalent = vi.L1Diff <= vi.Bound; !vi.Equivalent {
		return vi, fmt.Errorf("%w: %s L1 diff %g exceeds bound %g", errEquivalence, a.key, vi.L1Diff, vi.Bound)
	}
	return vi, nil
}

// staleReason maps a rejected warm start onto the response vocabulary.
func staleReason(d *lagraph.Delta) string {
	switch {
	case d != nil && d.Unknown:
		return "delta_untracked"
	case d != nil && d.Removals > 0:
		return "delta_has_removals"
	default:
		return "prior_invalid"
	}
}

// ccAlgo adapts connected components: FastSV restarted from the prior
// label vector, exact under insert-only deltas.
func ccAlgo(opts []lagraph.Option) incAlgo {
	return incAlgo{
		key:   "cc",
		exact: true,
		full: func(g *lagraph.Graph) (any, int, error) {
			res, err := lagraph.ConnectedComponentsWith(g, opts...)
			if err != nil {
				return nil, 0, err
			}
			res.Labels.Wait()
			return res.Labels, res.Iterations, nil
		},
		warm: func(g *lagraph.Graph, prior catalog.CachedResult, delta *lagraph.Delta) (any, int, error) {
			labels, ok := prior.Value.(*grb.Vector[int64])
			if !ok {
				return nil, 0, fmt.Errorf("%w: cached cc value has unexpected type", lagraph.ErrStalePrior)
			}
			res, err := lagraph.IncrementalCC(g, labels, delta, opts...)
			if err != nil {
				return nil, 0, err
			}
			res.Labels.Wait()
			return res.Labels, res.Iterations, nil
		},
		finish: func(resp *QueryResponse, v any) {
			labels := v.(*grb.Vector[int64])
			resp.Result = map[string]any{"components": lagraph.CountComponents(labels)}
			resp.Checksum = checksum(labels)
		},
	}
}

// bfsAlgo adapts BFS levels: a masked relaxation repairs them after edge
// insertions, exact under insert-only deltas. The depth, in the Result map
// and as a full run's iteration count, is read from the level vector, so
// full and warm responses agree byte for byte.
func bfsAlgo(src int, opts []lagraph.Option) incAlgo {
	return incAlgo{
		key:   fmt.Sprintf("bfs|src=%d", src),
		exact: true,
		full: func(g *lagraph.Graph) (any, int, error) {
			levels, err := lagraph.BFSLevels(g, src, opts...)
			if err != nil {
				return nil, 0, err
			}
			levels.Wait()
			return levels, bfsDepth(levels), nil
		},
		warm: func(g *lagraph.Graph, prior catalog.CachedResult, delta *lagraph.Delta) (any, int, error) {
			priorLevels, ok := prior.Value.(*grb.Vector[int32])
			if !ok {
				return nil, 0, fmt.Errorf("%w: cached bfs value has unexpected type", lagraph.ErrStalePrior)
			}
			levels, rounds, err := lagraph.IncrementalBFSLevels(g, src, priorLevels, delta, opts...)
			if err != nil {
				return nil, 0, err
			}
			levels.Wait()
			return levels, rounds, nil
		},
		finish: func(resp *QueryResponse, v any) {
			levels := v.(*grb.Vector[int32])
			resp.Result = map[string]any{"reached": levels.Nvals(), "depth": bfsDepth(levels)}
			resp.Checksum = checksum(levels)
		},
	}
}

// bfsDepth is the number of BFS levels: one past the deepest level, 0 for
// an empty vector.
func bfsDepth(levels *grb.Vector[int32]) int {
	depth := 0
	levels.Iterate(func(_ int, l int32) bool {
		depth = max(depth, int(l)+1)
		return true
	})
	return depth
}

// pagerankAlgo adapts PageRank: power iteration warm-started from the
// prior rank vector, valid under any delta, equivalent to tolerance
// (the contraction bound 2·damping·tol/(1-damping)).
func pagerankAlgo(req *QueryRequest, opts []lagraph.Option, k int) incAlgo {
	damping := req.Damping
	if damping == 0 {
		damping = 0.85
	}
	tol := req.Tol
	if tol <= 0 {
		tol = 1e-4
	}
	maxIter := req.MaxIter
	if maxIter <= 0 {
		maxIter = 100
	}
	return incAlgo{
		key: fmt.Sprintf("pagerank|d=%g|tol=%g|max=%d", damping, tol, maxIter),
		full: func(g *lagraph.Graph) (any, int, error) {
			res, err := lagraph.PageRankWith(g, opts...)
			if err != nil {
				return nil, 0, err
			}
			res.Rank.Wait()
			return res, res.Iterations, nil
		},
		warm: func(g *lagraph.Graph, prior catalog.CachedResult, _ *lagraph.Delta) (any, int, error) {
			pr, ok := prior.Value.(*lagraph.PageRankResult)
			if !ok {
				return nil, 0, fmt.Errorf("%w: cached pagerank value has unexpected type", lagraph.ErrStalePrior)
			}
			res, err := lagraph.PageRankWarm(g, pr.Rank, opts...)
			if err != nil {
				return nil, 0, err
			}
			res.Rank.Wait()
			return res, res.Iterations, nil
		},
		finish: func(resp *QueryResponse, v any) {
			res := v.(*lagraph.PageRankResult)
			resp.Result = map[string]any{
				"iterations": res.Iterations, "converged": res.Converged,
				"top": lagraph.TopK(res.Rank, k),
			}
			resp.Checksum = checksum(res.Rank)
		},
		l1: func(a, b any) float64 {
			return lagraph.L1Distance(a.(*lagraph.PageRankResult).Rank, b.(*lagraph.PageRankResult).Rank)
		},
		l1Bound: 2 * damping * tol / (1 - damping),
	}
}
