package sdf

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"

	"scap/internal/netlist"
	"scap/internal/parasitic"
	"scap/internal/place"
	"scap/internal/soc"
)

func computed(t *testing.T) (*Delays, int) {
	t.Helper()
	d, _, err := soc.Generate(soc.DefaultConfig(64))
	if err != nil {
		t.Fatal(err)
	}
	fp, err := place.Place(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parasitic.Extract(d, fp, parasitic.DefaultParams()); err != nil {
		t.Fatal(err)
	}
	return Compute(d), d.NumInsts()
}

func TestComputePositiveDelays(t *testing.T) {
	dl, n := computed(t)
	if len(dl.Rise) != n || len(dl.Fall) != n {
		t.Fatalf("table sized %d/%d, want %d", len(dl.Rise), len(dl.Fall), n)
	}
	for i := range dl.Rise {
		if dl.Rise[i] <= 0 || dl.Fall[i] <= 0 {
			t.Fatalf("instance %d has non-positive delay (%v, %v)", i, dl.Rise[i], dl.Fall[i])
		}
		if dl.Rise[i] > 5 || dl.Fall[i] > 5 {
			t.Fatalf("instance %d has implausible stage delay (%v, %v) ns", i, dl.Rise[i], dl.Fall[i])
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	dl, _ := computed(t)
	cp := dl.Clone()
	cp.Rise[0] = 99
	if dl.Rise[0] == 99 {
		t.Fatal("Clone shares storage")
	}
	r, f := dl.Of(3)
	if r != dl.Rise[3] || f != dl.Fall[3] {
		t.Fatal("Of accessor wrong")
	}
}

func TestSDFRoundTrip(t *testing.T) {
	d, _, err := soc.Generate(soc.DefaultConfig(64))
	if err != nil {
		t.Fatal(err)
	}
	fp, _ := place.Place(d, 1)
	if _, err := parasitic.Extract(d, fp, parasitic.DefaultParams()); err != nil {
		t.Fatal(err)
	}
	dl := Compute(d)
	var buf bytes.Buffer
	if err := Write(&buf, d, dl); err != nil {
		t.Fatal(err)
	}
	back, err := Read(bytes.NewReader(buf.Bytes()), d)
	if err != nil {
		t.Fatal(err)
	}
	for i := range dl.Rise {
		if !approx(back.Rise[i], dl.Rise[i]) || !approx(back.Fall[i], dl.Fall[i]) {
			t.Fatalf("instance %d: got (%v,%v) want (%v,%v)",
				i, back.Rise[i], back.Fall[i], dl.Rise[i], dl.Fall[i])
		}
	}
}

func approx(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= 1e-4*(1+b)
}

func TestReadErrors(t *testing.T) {
	d, _, err := soc.Generate(soc.DefaultConfig(64))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Read(strings.NewReader("(CELL nosuch (IOPATH 1 2))\n"), d); err == nil {
		t.Fatal("unknown instance accepted")
	}
	name := d.Insts[0].Name
	if _, err := Read(strings.NewReader("(CELL "+name+" (IOPATH x 2))\n"), d); err == nil {
		t.Fatal("bad rise accepted")
	}
	if _, err := Read(strings.NewReader("(CELL "+name+" (IOPATH 1 y))\n"), d); err == nil {
		t.Fatal("bad fall accepted")
	}
	if _, err := Read(strings.NewReader("(CELL "+name+")\n"), d); err == nil {
		t.Fatal("malformed record accepted")
	}
	if _, err := Read(strings.NewReader("(DELAYFILE)\nnothing\n"), d); err != nil {
		t.Fatalf("benign lines rejected: %v", err)
	}
}

// Read parses a reduced-SDF stream written by Write and returns the delay
// table for d (instances matched by name). It exists to check Write: no
// part of the program reads SDF.
func Read(r io.Reader, d *netlist.Design) (*Delays, error) {
	byName := make(map[string]netlist.InstID, len(d.Insts))
	for i := range d.Insts {
		byName[d.Insts[i].Name] = netlist.InstID(i)
	}
	dl := &Delays{Rise: make([]float64, len(d.Insts)), Fall: make([]float64, len(d.Insts))}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		txt := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(txt, "(CELL ") {
			continue
		}
		txt = strings.TrimSuffix(strings.TrimPrefix(txt, "("), ")")
		txt = strings.ReplaceAll(txt, "(", " ")
		txt = strings.ReplaceAll(txt, ")", " ")
		f := strings.Fields(txt)
		// Expect: CELL <name> IOPATH <rise> <fall>
		if len(f) != 5 || f[0] != "CELL" || f[2] != "IOPATH" {
			return nil, fmt.Errorf("sdf: line %d: malformed record %q", line, txt)
		}
		id, ok := byName[f[1]]
		if !ok {
			return nil, fmt.Errorf("sdf: line %d: unknown instance %q", line, f[1])
		}
		rise, err := strconv.ParseFloat(f[3], 64)
		if err != nil {
			return nil, fmt.Errorf("sdf: line %d: bad rise delay: %v", line, err)
		}
		fall, err := strconv.ParseFloat(f[4], 64)
		if err != nil {
			return nil, fmt.Errorf("sdf: line %d: bad fall delay: %v", line, err)
		}
		dl.Rise[id], dl.Fall[id] = rise, fall
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return dl, nil
}
