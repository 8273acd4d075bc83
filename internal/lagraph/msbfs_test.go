package lagraph

import (
	"testing"

	"lagraph/internal/baseline"
)

func TestMSBFSMatchesSingleSource(t *testing.T) {
	g := rmatGraph(t, 8, 8, 9, true)
	bg := baseline.FromMatrix(g.A.Dup())
	sources := []int{0, 3, 17, 100}
	levels, err := MSBFSLevels(g, sources)
	if err != nil {
		t.Fatal(err)
	}
	if levels.Nrows() != len(sources) {
		t.Fatalf("rows=%d", levels.Nrows())
	}
	for s, src := range sources {
		want, _ := baseline.BFSLevels(bg, src)
		for v := 0; v < g.N(); v++ {
			got, err := levels.GetElement(s, v)
			if want[v] < 0 {
				if err == nil {
					t.Fatalf("src %d: vertex %d unreachable but leveled", src, v)
				}
				continue
			}
			if err != nil || got != int32(want[v]) {
				t.Fatalf("src %d: level[%d]=%v want %d (err %v)", src, v, got, want[v], err)
			}
		}
	}
}

func TestMSBFSEmptyAndBadSources(t *testing.T) {
	g := rmatGraph(t, 6, 4, 9, true)
	levels, err := MSBFSLevels(g, nil)
	if err != nil || levels.Nrows() != 0 {
		t.Fatal("empty batch")
	}
	if _, err := MSBFSLevels(g, []int{0, -1}); err != ErrBadArgument {
		t.Fatal("bad source")
	}
}
