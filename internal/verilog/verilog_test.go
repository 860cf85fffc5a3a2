package verilog

import (
	"bytes"
	"strings"
	"testing"

	"scap/internal/cell"
	"scap/internal/scan"
	"scap/internal/soc"
)

func TestRoundTripSOC(t *testing.T) {
	d, _, err := soc.Generate(soc.DefaultConfig(64))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := scan.Insert(d, scan.Config{NumChains: 16}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	back, err := Read(bytes.NewReader(buf.Bytes()), cell.New180nm())
	if err != nil {
		t.Fatal(err)
	}
	if back.NumInsts() != d.NumInsts() || back.NumNets() != d.NumNets() {
		t.Fatalf("size mismatch: %d/%d insts, %d/%d nets",
			back.NumInsts(), d.NumInsts(), back.NumNets(), d.NumNets())
	}
	if len(back.PIs) != len(d.PIs) || len(back.POs) != len(d.POs) {
		t.Fatalf("io mismatch: %d/%d PIs, %d/%d POs",
			len(back.PIs), len(d.PIs), len(back.POs), len(d.POs))
	}
	if back.NumBlocks != d.NumBlocks || len(back.Domains) != len(d.Domains) {
		t.Fatal("block/domain metadata lost")
	}
	// Name-keyed structural comparison (IDs may be permuted).
	type sig struct {
		kind    cell.Kind
		out     string
		in      string
		block   int
		domain  int
		negEdge bool
	}
	want := map[string]sig{}
	for i := range d.Insts {
		inst := &d.Insts[i]
		s := sig{kind: inst.Kind, out: d.Nets[inst.Out].Name,
			block: inst.Block, domain: inst.Domain, negEdge: inst.NegEdge}
		ins := make([]string, len(inst.In))
		for p, n := range inst.In {
			ins[p] = d.Nets[n].Name
		}
		s.in = strings.Join(ins, ",")
		want[inst.Name] = s
	}
	for i := range back.Insts {
		inst := &back.Insts[i]
		s := sig{kind: inst.Kind, out: back.Nets[inst.Out].Name,
			block: inst.Block, negEdge: inst.NegEdge}
		if inst.IsFlop() {
			s.domain = inst.Domain
		} else {
			s.domain = -1
		}
		ins := make([]string, len(inst.In))
		for p, n := range inst.In {
			ins[p] = back.Nets[n].Name
		}
		s.in = strings.Join(ins, ",")
		w, ok := want[inst.Name]
		if !ok {
			t.Fatalf("unexpected instance %q", inst.Name)
		}
		if w != s {
			t.Fatalf("instance %q differs:\n got %+v\nwant %+v", inst.Name, s, w)
		}
	}
	if err := back.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteContainsStructure(t *testing.T) {
	d, _, err := soc.Generate(soc.DefaultConfig(96))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"module turbo_eagle_repro", "endmodule", "input pi0;", "wire ", "// domain 0: clka 100 MHz"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in output", want)
		}
	}
}

func TestReadErrors(t *testing.T) {
	lib := cell.New180nm()
	cases := []struct {
		name string
		src  string
	}{
		{"unknown cell", "wire a;\nwire y;\nFOO g1 (.Y(y), .A(a));\n"},
		{"unknown output net", "wire a;\nINV g1 (.Y(nope), .A(a));\n"},
		{"unknown input net", "wire y;\nINV g1 (.Y(y), .A(nope));\n"},
		{"malformed instance", "wire y;\nINV g1 .Y(y);\n"},
		{"bad connection", "wire a;\nwire y;\nINV g1 (Y(y), .A(a));\n"},
		{"bad assign", "assign x_po = nosuch;\n"},
		{"bad domain comment", "// domain x: clka xx MHz\n"},
		{"net driven twice", "module m (a, y_po);\n  input a;\n  wire y;\n  assign y_po = y;\n" +
			"  INV g1 (.Y(y), .A(a));\n  INV g2 (.Y(y), .A(a));\nendmodule\n"},
		{"empty input name", "input ;\nINV 0(.0());"},
		{"instance drives a primary input", "input a;\nINV g (.Y(a), .A(a));\n"},
		{"domain after its input", "input clk;\n// domain 0: clk 100 MHz\n"},
		{"net name with '='", "input a=b;\n"},
	}
	for _, c := range cases {
		if _, err := Read(strings.NewReader(c.src), lib); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestSanitize(t *testing.T) {
	if sanitize("a-b c.d") != "a_b_c_d" {
		t.Fatal("sanitize wrong")
	}
}
