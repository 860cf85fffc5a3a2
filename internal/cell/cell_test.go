package cell

import (
	"math/rand"
	"testing"

	"scap/internal/logic"
)

func TestKindNamesRoundTrip(t *testing.T) {
	l := New180nm()
	for _, k := range l.Kinds() {
		got, ok := KindByName(k.String())
		if !ok || got != k {
			t.Errorf("KindByName(%q) = %v,%v", k.String(), got, ok)
		}
	}
	if _, ok := KindByName("NOPE"); ok {
		t.Error("KindByName accepted garbage")
	}
}

func TestKindMetadata(t *testing.T) {
	if Inv.NumInputs() != 1 || Nand4.NumInputs() != 4 || Mux2.NumInputs() != 3 || SDFF.NumInputs() != 3 {
		t.Fatal("NumInputs wrong")
	}
	if !DFF.IsSequential() || !SDFF.IsSequential() || Nand2.IsSequential() {
		t.Fatal("IsSequential wrong")
	}
	if Kind(200).Valid() {
		t.Fatal("Valid accepted out-of-range kind")
	}
	if Kind(200).NumInputs() != 0 {
		t.Fatal("NumInputs of invalid kind should be 0")
	}
	if Kind(200).String() == "" {
		t.Fatal("String of invalid kind empty")
	}
}

func TestLibraryCharacterization(t *testing.T) {
	l := New180nm()
	if l.VDD != 1.8 {
		t.Fatalf("VDD = %v", l.VDD)
	}
	if l.KVolt != 0.9 {
		t.Fatalf("KVolt = %v", l.KVolt)
	}
	for _, k := range l.Kinds() {
		c := l.Cell(k)
		if c.RiseIntrinsic <= 0 || c.FallIntrinsic <= 0 {
			t.Errorf("%v: non-positive intrinsic delay", k)
		}
		if c.InputCap <= 0 || c.OutputCap <= 0 {
			t.Errorf("%v: non-positive capacitance", k)
		}
		if c.Area <= 0 {
			t.Errorf("%v: non-positive area", k)
		}
		// Delay must grow with load.
		if c.RiseDelay(10) <= c.RiseDelay(0) || c.FallDelay(10) <= c.FallDelay(0) {
			t.Errorf("%v: delay not monotone in load", k)
		}
	}
}

func TestEvalBasicGates(t *testing.T) {
	z, o, x := logic.Zero, logic.One, logic.X
	cases := []struct {
		k    Kind
		in   []logic.V
		want logic.V
	}{
		{Inv, []logic.V{z}, o},
		{Inv, []logic.V{o}, z},
		{Buf, []logic.V{o}, o},
		{Nand2, []logic.V{o, o}, z},
		{Nand2, []logic.V{z, x}, o},
		{Nand3, []logic.V{o, o, z}, o},
		{Nand4, []logic.V{o, o, o, o}, z},
		{Nor2, []logic.V{z, z}, o},
		{Nor2, []logic.V{o, x}, z},
		{Nor3, []logic.V{z, z, z}, o},
		{Nor4, []logic.V{z, o, z, z}, z},
		{And3, []logic.V{o, o, o}, o},
		{And4, []logic.V{o, z, o, o}, z},
		{Or3, []logic.V{z, z, o}, o},
		{Or4, []logic.V{z, z, z, z}, z},
		{Xor2, []logic.V{o, z}, o},
		{Xor2, []logic.V{o, o}, z},
		{Xnor2, []logic.V{o, o}, o},
		{Mux2, []logic.V{z, o, z}, z}, // S=0 selects A
		{Mux2, []logic.V{z, o, o}, o}, // S=1 selects B
		{Mux2, []logic.V{o, o, x}, o}, // X select, data agree
		{Mux2, []logic.V{z, o, x}, x}, // X select, data disagree
		{Aoi21, []logic.V{o, o, z}, z},
		{Aoi21, []logic.V{z, o, z}, o},
		{Oai21, []logic.V{z, z, o}, o},
		{Oai21, []logic.V{o, z, o}, z},
		{Aoi22, []logic.V{o, o, z, z}, z},
		{Aoi22, []logic.V{z, o, o, z}, o},
		{Oai22, []logic.V{o, z, o, z}, z},
		{Oai22, []logic.V{z, z, o, o}, o},
		{DFF, []logic.V{o}, o},
		{SDFF, []logic.V{z, o, o}, o}, // SE=1 captures SI
		{SDFF, []logic.V{z, o, z}, z}, // SE=0 captures D
	}
	for _, c := range cases {
		if got := Eval(c.k, c.in); got != c.want {
			t.Errorf("Eval(%v, %v) = %v, want %v", c.k, c.in, got, c.want)
		}
	}
}

func TestEvalPanicsOnArity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong arity")
		}
	}()
	Eval(Nand2, []logic.V{logic.One})
}

func TestEvalWordPanicsOnArity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong arity")
		}
	}()
	EvalWord(Mux2, []logic.Word{logic.AllX})
}

// TestEvalWordAgreesWithScalar is the load-bearing cross-check: the parallel
// evaluator must match the scalar evaluator slot-by-slot for every kind and
// random three-valued inputs.
func TestEvalWordAgreesWithScalar(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	lib := New180nm()
	for _, k := range lib.Kinds() {
		n := k.NumInputs()
		for iter := 0; iter < 50; iter++ {
			ws := make([]logic.Word, n)
			for i := range ws {
				known := r.Uint64()
				ones := r.Uint64() & known
				ws[i] = logic.Word{Zero: known &^ ones, One: ones}
			}
			got := EvalWord(k, ws)
			if !got.WellFormed() {
				t.Fatalf("%v: ill-formed word result", k)
			}
			for s := uint(0); s < 64; s++ {
				vs := make([]logic.V, n)
				for i := range vs {
					vs[i] = ws[i].Get(s)
				}
				want := Eval(k, vs)
				if got.Get(s) != want {
					t.Fatalf("%v slot %d: in=%v got %v want %v", k, s, vs, got.Get(s), want)
				}
			}
		}
	}
}

func BenchmarkEvalWordNand2(b *testing.B) {
	in := []logic.Word{logic.AllOne, logic.AllZero}
	for i := 0; i < b.N; i++ {
		_ = EvalWord(Nand2, in)
	}
}

// TestEvalPackedMatchesEval pins the packed LUT to the reference Eval on
// every kind and every valid input combination.
func TestEvalPackedMatchesEval(t *testing.T) {
	in := make([]logic.V, 4)
	for k := Kind(0); k < numKinds; k++ {
		n := k.NumInputs()
		total := 1
		for i := 0; i < n; i++ {
			total *= 3
		}
		for c := 0; c < total; c++ {
			idx, rem := uint32(0), c
			for p := 0; p < n; p++ {
				v := logic.V(rem % 3)
				rem /= 3
				in[p] = v
				idx |= uint32(v) << (2 * p)
			}
			if got, want := EvalPacked(k, idx), Eval(k, in[:n]); got != want {
				t.Fatalf("%v packed idx %#x: got %v, want %v", k, idx, got, want)
			}
		}
	}
}
