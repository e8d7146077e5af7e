package mobility

import (
	"math"
	"math/rand/v2"
	"testing"

	"manhattanflood/internal/geom"
	"manhattanflood/internal/stats"
)

func TestNewRWPErrors(t *testing.T) {
	if _, err := NewRWP(Config{L: 0, V: 1}); err == nil {
		t.Error("want config error")
	}
	if _, err := NewRWP(Config{L: 1, V: 1}, WithRWPInit(InitTheorem12)); err == nil {
		t.Error("InitTheorem12 must be rejected for RWP")
	}
	if _, err := NewRWP(Config{L: 1, V: 1}, WithRWPInit(InitUniform)); err != nil {
		t.Errorf("uniform init rejected: %v", err)
	}
}

func TestRWPAgentBasics(t *testing.T) {
	const l = 5.0
	m, err := NewRWP(Config{L: l, V: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "rwp" {
		t.Errorf("Name = %q", m.Name())
	}
	sq := geom.Square(geom.Pt(0, 0), l)
	rng := testRNG(20)
	for i := 0; i < 10; i++ {
		a := m.NewAgent(rng)
		for s := 0; s < 500; s++ {
			before := a.Pos()
			a.Step()
			if !a.Pos().In(sq) {
				t.Fatalf("RWP agent escaped: %v", a.Pos())
			}
			if d := before.Dist(a.Pos()); d > 0.3+1e-9 {
				t.Fatalf("RWP step moved %v > V", d)
			}
		}
	}
}

func TestRWPStraightLineMotion(t *testing.T) {
	// Between way-points, three consecutive positions are collinear.
	m, _ := NewRWP(Config{L: 100, V: 0.1})
	rng := testRNG(21)
	a := m.NewAgent(rng).(*RWPAgent)
	for s := 0; s < 30; s++ {
		if a.Pos().Dist(a.Destination()) < 1 {
			break
		}
		p0 := a.Pos()
		a.Step()
		p1 := a.Pos()
		a.Step()
		p2 := a.Pos()
		cross := (p1.X-p0.X)*(p2.Y-p0.Y) - (p1.Y-p0.Y)*(p2.X-p0.X)
		if math.Abs(cross) > 1e-9 {
			t.Fatalf("non-collinear motion: %v %v %v", p0, p1, p2)
		}
	}
}

func TestRWPWaypointsAdvance(t *testing.T) {
	m, _ := NewRWP(Config{L: 1, V: 0.4})
	rng := testRNG(22)
	a := m.NewAgent(rng).(*RWPAgent)
	for s := 0; s < 200; s++ {
		a.Step()
	}
	if a.Waypoints() == 0 {
		t.Error("no way-points reached in 200 fast steps")
	}
}

func TestRandomWalkUniformStationary(t *testing.T) {
	const l = 1.0
	m, err := NewRandomWalk(Config{L: l, V: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "random-walk" {
		t.Errorf("Name = %q", m.Name())
	}
	rng := testRNG(23)
	g, _ := stats.NewGrid2D(l, 6)
	const agents = 300
	const steps = 800
	for i := 0; i < agents; i++ {
		a := m.NewAgent(rng)
		for s := 0; s < steps; s++ {
			a.Step()
			p := a.Pos()
			g.Add(p.X, p.Y)
		}
	}
	uniform := func(x, y float64) float64 { return 1 }
	_, _, l1 := g.CompareDensity(uniform)
	// Reflecting random walks are uniform up to small boundary effects.
	if l1 > 0.12 {
		t.Errorf("random-walk L1 distance from uniform = %v", l1)
	}
}

func TestRandomWalkErrors(t *testing.T) {
	if _, err := NewRandomWalk(Config{L: -1, V: 1}); err == nil {
		t.Error("want config error")
	}
}

func TestRandomWalkStepLength(t *testing.T) {
	m, _ := NewRandomWalk(Config{L: 10, V: 0.2})
	rng := testRNG(24)
	a := m.NewAgent(rng)
	for s := 0; s < 500; s++ {
		before := a.Pos()
		a.Step()
		d := before.Dist(a.Pos())
		// Interior steps move exactly V; reflected steps can be shorter.
		if d > 0.2+1e-9 {
			t.Fatalf("walk step %v > V", d)
		}
	}
	if a.Speed() != 0.2 {
		t.Errorf("Speed = %v", a.Speed())
	}
}

func TestRandomDirection(t *testing.T) {
	const l = 2.0
	m, err := NewRandomDirection(Config{L: l, V: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "random-direction" {
		t.Errorf("Name = %q", m.Name())
	}
	sq := geom.Square(geom.Pt(0, 0), l)
	rng := testRNG(25)
	for i := 0; i < 10; i++ {
		a := m.NewAgent(rng)
		for s := 0; s < 1000; s++ {
			before := a.Pos()
			a.Step()
			if !a.Pos().In(sq) {
				t.Fatalf("direction agent escaped: %v", a.Pos())
			}
			if d := before.Dist(a.Pos()); d > 0.1+1e-9 {
				t.Fatalf("direction step %v > V", d)
			}
		}
	}
	if _, err := NewRandomDirection(Config{L: 1, V: 0}); err == nil {
		t.Error("want config error")
	}
}

func TestRandomDirectionTraverses(t *testing.T) {
	// The agent must actually roam the square, not jitter at a wall.
	m, _ := NewRandomDirection(Config{L: 1, V: 0.02})
	rng := testRNG(26)
	a := m.NewAgent(rng)
	var minX, maxX, minY, maxY = 1.0, 0.0, 1.0, 0.0
	for s := 0; s < 20000; s++ {
		a.Step()
		p := a.Pos()
		minX = math.Min(minX, p.X)
		maxX = math.Max(maxX, p.X)
		minY = math.Min(minY, p.Y)
		maxY = math.Max(maxY, p.Y)
	}
	if maxX-minX < 0.8 || maxY-minY < 0.8 {
		t.Errorf("agent covered only [%v,%v]x[%v,%v]", minX, maxX, minY, maxY)
	}
}

func TestReflect(t *testing.T) {
	tests := []struct {
		v, side, want float64
	}{
		{0.5, 1, 0.5},
		{0, 1, 0},
		{1, 1, 1},
		{1.25, 1, 0.75},
		{2.5, 1, 0.5},
		{-0.25, 1, 0.25},
		{-1.5, 1, 0.5},
		{7.3, 2, 0.7},
	}
	for _, tt := range tests {
		if got := reflect(tt.v, tt.side); math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("reflect(%v, %v) = %v, want %v", tt.v, tt.side, got, tt.want)
		}
	}
	if reflect(1, 0) != 0 {
		t.Error("degenerate side must clamp to 0")
	}
}

func TestReflectDir(t *testing.T) {
	tests := []struct {
		v, side, want float64
		flip          bool
	}{
		{0.5, 1, 0.5, false},
		{1.25, 1, 0.75, true},
		{2.25, 1, 0.25, false},
		{-0.25, 1, 0.25, true},
		{3.5, 1, 0.5, true},
	}
	for _, tt := range tests {
		got, flip := reflectDir(tt.v, tt.side)
		if math.Abs(got-tt.want) > 1e-9 || flip != tt.flip {
			t.Errorf("reflectDir(%v, %v) = (%v, %v), want (%v, %v)",
				tt.v, tt.side, got, flip, tt.want, tt.flip)
		}
	}
}

// All models implement the Model interface and produce agents that report
// the configured speed.
func TestModelContract(t *testing.T) {
	cfg := Config{L: 3, V: 0.7}
	mrwp, _ := NewMRWP(cfg)
	rwp, _ := NewRWP(cfg)
	walk, _ := NewRandomWalk(cfg)
	dir, _ := NewRandomDirection(cfg)
	type refModel interface {
		Model
		NewAgent(*rand.Rand) Agent
	}
	for _, m := range []refModel{mrwp, rwp, walk, dir} {
		t.Run(m.Name(), func(t *testing.T) {
			rng := testRNG(30)
			a := m.NewAgent(rng)
			if a.Speed() != 0.7 {
				t.Errorf("Speed = %v, want 0.7", a.Speed())
			}
			if !a.Pos().In(geom.Square(geom.Pt(0, 0), 3)) {
				t.Errorf("initial position %v outside square", a.Pos())
			}
		})
	}
}
