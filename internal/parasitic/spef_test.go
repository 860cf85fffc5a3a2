package parasitic

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"

	"scap/internal/netlist"
)

// ReadSPEF parses a reduced-SPEF stream written by WriteSPEF and annotates
// the matching nets of d (looked up by name). Unknown net names and
// malformed records are errors; nets absent from the file keep their
// current annotation. Only the round-trip tests read SPEF.
func ReadSPEF(r io.Reader, d *netlist.Design) error {
	byName := make(map[string]netlist.NetID, len(d.Nets))
	for i := range d.Nets {
		byName[d.Nets[i].Name] = d.Nets[i].ID
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		txt := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(txt, "*D_NET") {
			continue
		}
		f := strings.Fields(txt)
		if len(f) != 4 {
			return fmt.Errorf("parasitic: SPEF line %d: want 4 fields, got %d", line, len(f))
		}
		id, ok := byName[f[1]]
		if !ok {
			return fmt.Errorf("parasitic: SPEF line %d: unknown net %q", line, f[1])
		}
		c, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			return fmt.Errorf("parasitic: SPEF line %d: bad cap: %v", line, err)
		}
		dl, err := strconv.ParseFloat(f[3], 64)
		if err != nil {
			return fmt.Errorf("parasitic: SPEF line %d: bad delay: %v", line, err)
		}
		d.Nets[id].WireCap = c
		d.Nets[id].WireDelay = dl
	}
	return sc.Err()
}

// TestSPEFRoundTrip: every annotated net of an extracted design survives
// WriteSPEF→ReadSPEF to the 6 significant digits WriteSPEF prints, and
// every unannotated net stays unannotated.
func TestSPEFRoundTrip(t *testing.T) {
	d, fp := placedSOC(t)
	if _, err := Extract(d, fp, DefaultParams()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSPEF(&buf, d); err != nil {
		t.Fatal(err)
	}
	want := make([]netlist.Net, len(d.Nets))
	annotated := 0
	for i := range d.Nets {
		want[i] = d.Nets[i]
		if want[i].WireCap != 0 || want[i].WireDelay != 0 {
			annotated++
		}
		d.Nets[i].WireCap, d.Nets[i].WireDelay = 0, 0
	}
	if annotated == 0 {
		t.Fatal("degenerate test: no annotated net")
	}
	if err := ReadSPEF(&buf, d); err != nil {
		t.Fatal(err)
	}
	g6 := func(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }
	for i := range d.Nets {
		got, w := &d.Nets[i], &want[i]
		if g6(got.WireCap) != g6(w.WireCap) || g6(got.WireDelay) != g6(w.WireDelay) {
			t.Fatalf("net %s: read back (%v, %v), wrote (%v, %v)", w.Name,
				got.WireCap, got.WireDelay, w.WireCap, w.WireDelay)
		}
	}
}

func TestReadSPEFErrors(t *testing.T) {
	d, _ := placedSOC(t)
	name := d.Nets[0].Name
	for _, bad := range []string{
		"*D_NET nosuchnet 1 2\n",      // unknown net
		"*D_NET short\n",              // too few fields
		"*D_NET " + name + " 1 2 3\n", // too many fields
		"*D_NET " + name + " xx 2\n",  // bad cap
		"*D_NET " + name + " 1 yy\n",  // bad delay
	} {
		if err := ReadSPEF(strings.NewReader(bad), d); err == nil {
			t.Errorf("ReadSPEF accepted %q", bad)
		}
	}
	// Comments and blank lines are fine.
	if err := ReadSPEF(strings.NewReader("\n// nothing\n*END\n"), d); err != nil {
		t.Fatal(err)
	}
}
