package grb

// Networking is banned outright in kernel code. The context package is
// not: checking a caller's ctx between chunks of work is the sanctioned
// cancellation seam, and storing one (struct field or package variable)
// is a context-plumbing finding here as in every library package.

import (
	"context"
	"net" // WANT kernel-purity

	_ "net/http" // WANT kernel-purity
)

var _ = net.JoinHostPort

// storedCtx smuggles ambient state into kernel objects.
type storedCtx struct {
	ctx context.Context // WANT context-plumbing
	n   int
}

// pkgCtx outlives every call that could have scoped it.
var pkgCtx = context.Background() // WANT context-plumbing

// heldCtx is stored by its declared type alone.
var heldCtx context.Context // WANT context-plumbing

// chunkedKernel shows the sanctioned seam: ctx arrives as a parameter and
// is only ever checked, never retained.
func chunkedKernel(ctx context.Context, work []int) (int, error) {
	sum := 0
	for i, w := range work {
		if i%1024 == 0 {
			select {
			case <-ctx.Done():
				return 0, ctx.Err()
			default:
			}
		}
		sum += w
	}
	return sum, nil
}

var _ = storedCtx{}
var _ = pkgCtx
var _ = chunkedKernel
