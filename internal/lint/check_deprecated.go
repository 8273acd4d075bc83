package lint

import (
	"strings"
)

// deprecationCheck flags doc comments that mark a symbol with the
// conventional "Deprecated:" paragraph. The repo's API policy is that
// deprecation is a transition state inside a single PR, never a resting
// state: the PR that replaces an entry point also migrates every caller
// and deletes the old symbol, so a "Deprecated:" marker surviving into a
// commit means the migration was left half-done. HTTP-level deprecation
// (the legacy unversioned routes answering with a Deprecation header) is
// a wire-protocol concern for external clients and is not affected —
// this check reads Go doc comments only.
//
// A marker that must genuinely linger (e.g. mirroring an upstream API)
// needs a justified //grblint:ignore no-deprecated directive.
func deprecationCheck() *Check {
	return &Check{
		Name:    "no-deprecated",
		Applies: func(p *Package) bool { return true },
		Run:     runNoDeprecated,
	}
}

func runNoDeprecated(p *Package, r *Reporter) {
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimPrefix(text, "/*")
				if strings.HasPrefix(strings.TrimSpace(text), "Deprecated:") {
					r.Reportf(c.Pos(),
						"doc comment marks a symbol Deprecated; delete the symbol and migrate its callers in the same change (this repo does not accumulate deprecated API)")
				}
			}
		}
	}
}
