package sim

import (
	"testing"

	"manhattanflood/internal/geom"
)

// A held SnapshotGraph must stay a consistent picture of the step it was
// taken at, even though World.Positions is reused in place by later Step
// calls. Regression test for the old index behavior of retaining the
// caller's slice.
func TestSnapshotGraphStableAcrossSteps(t *testing.T) {
	w, err := NewWorld(Params{N: 300, L: 18, R: 2.5, V: 0.5, Seed: 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	g, err := w.SnapshotGraph()
	if err != nil {
		t.Fatal(err)
	}

	// Record the snapshot's view before the world moves on.
	degBefore := make([]int, w.N())
	for i := 0; i < w.N(); i++ {
		degBefore[i] = g.Degree(i)
	}
	nbrBefore := g.Neighbors(0, nil)
	compBefore := g.Components().Sets()

	for s := 0; s < 50; s++ {
		w.Step()
	}

	for i := 0; i < w.N(); i++ {
		if got := g.Degree(i); got != degBefore[i] {
			t.Fatalf("vertex %d degree drifted after stepping: %d -> %d", i, degBefore[i], got)
		}
	}
	nbrAfter := g.Neighbors(0, nil)
	if len(nbrAfter) != len(nbrBefore) {
		t.Fatalf("neighbor list drifted: %v -> %v", nbrBefore, nbrAfter)
	}
	for i := range nbrAfter {
		if nbrAfter[i] != nbrBefore[i] {
			t.Fatalf("neighbor list drifted: %v -> %v", nbrBefore, nbrAfter)
		}
	}
	if got := g.Components().Sets(); got != compBefore {
		t.Fatalf("component count drifted: %d -> %d", compBefore, got)
	}
}

// Full-adjacency snapshot safety for slow agents (V/R = 0.04): everything
// a caller can hold across steps — SnapshotGraph, Positions — copies, so a
// graph.Disk held while the world rewrites x/y in place must stay exactly
// the graph of the step it was taken at, and never silently alias the
// mutating coordinates. "Delta updates" are the small per-step position
// changes of this slow regime.
func TestSnapshotGraphStableAcrossDeltaUpdates(t *testing.T) {
	w, err := NewWorld(Params{N: 300, L: 18, R: 2.5, V: 0.1, Seed: 9}, nil)
	if err != nil {
		t.Fatal(err)
	}
	w.Step()

	g, err := w.SnapshotGraph()
	if err != nil {
		t.Fatal(err)
	}
	pos := w.Positions()
	adjBefore := make([][]int, w.N())
	for i := range adjBefore {
		adjBefore[i] = g.Neighbors(i, nil)
	}

	for s := 0; s < 50; s++ {
		w.Step()
	}

	// The held graph must still describe the recorded step exactly...
	for i := range adjBefore {
		got := g.Neighbors(i, nil)
		if len(got) != len(adjBefore[i]) {
			t.Fatalf("vertex %d adjacency drifted after stepping: %v -> %v", i, adjBefore[i], got)
		}
		for k := range got {
			if got[k] != adjBefore[i][k] {
				t.Fatalf("vertex %d adjacency drifted after stepping: %v -> %v", i, adjBefore[i], got)
			}
		}
	}
	// ...and the recorded positions must verify it independently: every
	// recorded edge within R, every recorded non-edge beyond R would have
	// been caught above only if the graph aliased nothing.
	r2 := 2.5 * 2.5
	for i, nbrs := range adjBefore {
		for _, j := range nbrs {
			if d := pos[i].Dist2(pos[j]); d > r2+1e-12 {
				t.Fatalf("edge (%d,%d) inconsistent with the snapshot positions: dist2 %v", i, j, d)
			}
		}
	}
	// The live world meanwhile has genuinely moved on.
	moved := false
	xs, ys := w.X(), w.Y()
	for i := range pos {
		if pos[i] != (geom.Point{X: xs[i], Y: ys[i]}) {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("world did not move; the stability assertions are vacuous")
	}
}
