package place

import (
	"strings"
	"testing"

	"scap/internal/netlist"
	"scap/internal/soc"
)

// Area returns the rectangle area.
func (r Rect) Area() float64 { return r.W() * r.H() }

// Overlaps reports whether two rectangles intersect with positive area.
func (r Rect) Overlaps(o Rect) bool {
	return r.X0 < o.X1 && o.X0 < r.X1 && r.Y0 < o.Y1 && o.Y0 < r.Y1
}

func TestFloorplanGeometry(t *testing.T) {
	fp := NewFloorplan()
	if len(fp.Blocks) != soc.NumBlocks {
		t.Fatalf("floorplan has %d blocks", len(fp.Blocks))
	}
	for b, r := range fp.Blocks {
		if r.W() <= 0 || r.H() <= 0 {
			t.Errorf("block B%d degenerate: %+v", b+1, r)
		}
		if r.X0 < 0 || r.Y0 < 0 || r.X1 > fp.W || r.Y1 > fp.H {
			t.Errorf("block B%d outside die: %+v", b+1, r)
		}
		for o := b + 1; o < len(fp.Blocks); o++ {
			if r.Overlaps(fp.Blocks[o]) {
				t.Errorf("B%d overlaps B%d", b+1, o+1)
			}
		}
		if fp.Glue.Overlaps(r) {
			t.Errorf("glue channel overlaps B%d", b+1)
		}
	}
	// B5 must be central: its center within the middle third of the die.
	cx, cy := fp.Blocks[soc.B5].Center()
	if cx < fp.W/3 || cx > 2*fp.W/3 || cy < fp.H/3 || cy > 2*fp.H/3 {
		t.Errorf("B5 not central: (%v, %v)", cx, cy)
	}
}

func TestRectHelpers(t *testing.T) {
	r := Rect{10, 20, 30, 60}
	if r.W() != 20 || r.H() != 40 || r.Area() != 800 {
		t.Fatal("dimension helpers wrong")
	}
	cx, cy := r.Center()
	if cx != 20 || cy != 40 {
		t.Fatal("center wrong")
	}
	if !r.Contains(15, 25) || r.Contains(5, 25) || r.Contains(30, 25) {
		t.Fatal("contains wrong")
	}
	if !r.Overlaps(Rect{25, 50, 40, 70}) || r.Overlaps(Rect{30, 20, 40, 60}) {
		t.Fatal("overlaps wrong")
	}
}

func TestBlockAt(t *testing.T) {
	fp := NewFloorplan()
	for b, r := range fp.Blocks {
		cx, cy := r.Center()
		if got := fp.BlockAt(cx, cy); got != b {
			t.Errorf("BlockAt center of B%d = %d", b+1, got)
		}
	}
	if got := fp.BlockAt(fp.W*0.5, fp.H*0.99); got != netlist.NoBlock {
		t.Errorf("BlockAt top channel = %d, want NoBlock", got)
	}
}

func TestPlaceAllInstancesInsideBlocks(t *testing.T) {
	cfg := soc.DefaultConfig(64)
	d, _, err := soc.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := Place(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range d.Insts {
		inst := &d.Insts[i]
		r := fp.Rect(inst.Block)
		if !r.Contains(inst.X, inst.Y) {
			t.Fatalf("instance %s placed at (%v,%v) outside %+v of block %d",
				inst.Name, inst.X, inst.Y, r, inst.Block)
		}
	}
}

func TestPlaceDeterministic(t *testing.T) {
	cfg := soc.DefaultConfig(64)
	d1, _, _ := soc.Generate(cfg)
	d2, _, _ := soc.Generate(cfg)
	if _, err := Place(d1, 9); err != nil {
		t.Fatal(err)
	}
	if _, err := Place(d2, 9); err != nil {
		t.Fatal(err)
	}
	for i := range d1.Insts {
		if d1.Insts[i].X != d2.Insts[i].X || d1.Insts[i].Y != d2.Insts[i].Y {
			t.Fatalf("placement differs at instance %d", i)
		}
	}
}

func TestDist(t *testing.T) {
	a := &netlist.Instance{X: 0, Y: 0}
	b := &netlist.Instance{X: 3, Y: 4}
	if Dist(a, b) != 7 {
		t.Fatalf("Dist = %v, want 7 (Manhattan)", Dist(a, b))
	}
}

func TestASCIIFloorplan(t *testing.T) {
	fp := NewFloorplan()
	s := fp.ASCII(40, 20)
	for b := 1; b <= 6; b++ {
		label := []string{"", "B1", "B2", "B3", "B4", "B5", "B6"}[b]
		if !strings.Contains(s, label) {
			t.Errorf("ASCII floorplan missing %s:\n%s", label, s)
		}
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 20 {
		t.Fatalf("ASCII height %d", len(lines))
	}
	// B1 is top-left: the '1' fill must appear in the upper-left quadrant.
	if !strings.Contains(lines[2][:20], "1") {
		t.Errorf("B1 not in upper-left:\n%s", s)
	}
	// B4 is bottom-right.
	if !strings.Contains(lines[17][20:], "4") {
		t.Errorf("B4 not in lower-right:\n%s", s)
	}
}
