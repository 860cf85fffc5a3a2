package logic

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestScalarNot(t *testing.T) {
	cases := []struct{ in, want V }{
		{Zero, One}, {One, Zero}, {X, X},
	}
	for _, c := range cases {
		if got := c.in.Not(); got != c.want {
			t.Errorf("Not(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestScalarAndTruthTable(t *testing.T) {
	want := map[[2]V]V{
		{Zero, Zero}: Zero, {Zero, One}: Zero, {Zero, X}: Zero,
		{One, Zero}: Zero, {One, One}: One, {One, X}: X,
		{X, Zero}: Zero, {X, One}: X, {X, X}: X,
	}
	for in, w := range want {
		if got := in[0].And(in[1]); got != w {
			t.Errorf("And(%v,%v) = %v, want %v", in[0], in[1], got, w)
		}
	}
}

func TestScalarOrTruthTable(t *testing.T) {
	want := map[[2]V]V{
		{Zero, Zero}: Zero, {Zero, One}: One, {Zero, X}: X,
		{One, Zero}: One, {One, One}: One, {One, X}: One,
		{X, Zero}: X, {X, One}: One, {X, X}: X,
	}
	for in, w := range want {
		if got := in[0].Or(in[1]); got != w {
			t.Errorf("Or(%v,%v) = %v, want %v", in[0], in[1], got, w)
		}
	}
}

func TestScalarXorTruthTable(t *testing.T) {
	want := map[[2]V]V{
		{Zero, Zero}: Zero, {Zero, One}: One, {Zero, X}: X,
		{One, Zero}: One, {One, One}: Zero, {One, X}: X,
		{X, Zero}: X, {X, One}: X, {X, X}: X,
	}
	for in, w := range want {
		if got := in[0].Xor(in[1]); got != w {
			t.Errorf("Xor(%v,%v) = %v, want %v", in[0], in[1], got, w)
		}
	}
}

func TestScalarString(t *testing.T) {
	if Zero.String() != "0" || One.String() != "1" || X.String() != "X" {
		t.Fatal("unexpected String values")
	}
	if !Zero.Valid() || !One.Valid() || !X.Valid() || V(7).Valid() {
		t.Fatal("Valid misclassifies")
	}
	if V(9).String() == "" {
		t.Fatal("out-of-range String should not be empty")
	}
}

func TestFromBool(t *testing.T) {
	if FromBool(true) != One || FromBool(false) != Zero {
		t.Fatal("FromBool wrong")
	}
}

func TestWordGetSet(t *testing.T) {
	w := AllX
	w = w.Set(3, One).Set(17, Zero).Set(63, One)
	if w.Get(3) != One || w.Get(17) != Zero || w.Get(63) != One {
		t.Fatalf("Get after Set mismatch: %v", w)
	}
	if w.Get(0) != X || w.Get(62) != X {
		t.Fatal("untouched slots should be X")
	}
	// Overwrite a slot.
	w = w.Set(3, Zero)
	if w.Get(3) != Zero {
		t.Fatal("overwrite failed")
	}
	if !w.WellFormed() {
		t.Fatal("Set produced ill-formed word")
	}
}

func TestSplat(t *testing.T) {
	for _, v := range []V{Zero, One, X} {
		w := Splat(v)
		for i := uint(0); i < 64; i++ {
			if w.Get(i) != v {
				t.Fatalf("Splat(%v) slot %d = %v", v, i, w.Get(i))
			}
		}
	}
}

// randomWord returns a well-formed word with a random mix of 0/1/X slots.
func randomWord(r *rand.Rand) Word {
	known := r.Uint64()
	ones := r.Uint64() & known
	return Word{Zero: known &^ ones, One: ones}
}

// TestWordScalarAgreement cross-checks every parallel operation against the
// scalar truth tables on random words (property-based).
func TestWordScalarAgreement(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for iter := 0; iter < 200; iter++ {
		a, b := randomWord(r), randomWord(r)
		and, or, xor, not := a.And(b), a.Or(b), a.Xor(b), a.Not()
		for _, w := range []Word{and, or, xor, not} {
			if !w.WellFormed() {
				t.Fatalf("ill-formed result %v", w)
			}
		}
		for i := uint(0); i < 64; i++ {
			av, bv := a.Get(i), b.Get(i)
			if got, want := and.Get(i), av.And(bv); got != want {
				t.Fatalf("And slot %d: %v&%v=%v want %v", i, av, bv, got, want)
			}
			if got, want := or.Get(i), av.Or(bv); got != want {
				t.Fatalf("Or slot %d: %v|%v=%v want %v", i, av, bv, got, want)
			}
			if got, want := xor.Get(i), av.Xor(bv); got != want {
				t.Fatalf("Xor slot %d: %v^%v=%v want %v", i, av, bv, got, want)
			}
			if got, want := not.Get(i), av.Not(); got != want {
				t.Fatalf("Not slot %d: !%v=%v want %v", i, av, got, want)
			}
		}
	}
}

func TestWordDeMorganProperty(t *testing.T) {
	f := func(az, ao, bz, bo uint64) bool {
		a := Word{Zero: az &^ ao, One: ao}
		b := Word{Zero: bz &^ bo, One: bo}
		lhs := a.And(b).Not()
		rhs := a.Not().Or(b.Not())
		return lhs == rhs
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWordDoubleNegationProperty(t *testing.T) {
	f := func(z, o uint64) bool {
		a := Word{Zero: z &^ o, One: o}
		return a.Not().Not() == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWordXorSelfIsZeroWhereKnown(t *testing.T) {
	f := func(z, o uint64) bool {
		a := Word{Zero: z &^ o, One: o}
		x := a.Xor(a)
		// Known slots must become 0; X slots stay X.
		return x.One == 0 && x.Zero == a.Known()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDiff(t *testing.T) {
	a := AllX.Set(0, One).Set(1, Zero).Set(2, One)
	b := AllX.Set(0, Zero).Set(1, Zero).Set(3, One)
	if d := a.Diff(b); d != 1 {
		t.Fatalf("Diff = %b, want only slot 0", d)
	}
}

func TestSelect(t *testing.T) {
	a, b := Splat(Zero), Splat(One)
	m := uint64(0b1010)
	s := Select(m, a, b)
	if s.Get(0) != Zero || s.Get(1) != One || s.Get(2) != Zero || s.Get(3) != One {
		t.Fatalf("Select mixed wrong: %v", s)
	}
	if !s.WellFormed() {
		t.Fatal("Select ill-formed")
	}
}

func TestWordString(t *testing.T) {
	w := AllX.Set(0, One).Set(1, Zero)
	s := w.String()
	if len(s) != 64 || s[0] != '1' || s[1] != '0' || s[2] != 'X' {
		t.Fatalf("String = %q", s)
	}
}

func TestKnownMask(t *testing.T) {
	w := AllX.Set(5, One).Set(9, Zero)
	want := uint64(1<<5 | 1<<9)
	if w.Known() != want {
		t.Fatalf("Known = %b want %b", w.Known(), want)
	}
}

// TestPackSlotsRoundTrip: the transpose must agree with the slot-by-slot
// Word.Set construction it replaces, for random vectors and every count.
func TestPackSlotsRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, count := range []int{1, 2, 7, 63, 64} {
		const n = 37
		vecs := make([][]V, count)
		for s := range vecs {
			vecs[s] = make([]V, n)
			for i := range vecs[s] {
				vecs[s][i] = V(r.Intn(3))
			}
		}
		want := make([]Word, n)
		for s := range vecs {
			for i, v := range vecs[s] {
				want[i] = want[i].Set(uint(s), v)
			}
		}
		got := PackSlots(nil, vecs)
		if len(got) != n {
			t.Fatalf("count %d: length %d want %d", count, len(got), n)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("count %d word %d: %v want %v", count, i, got[i], want[i])
			}
			if !got[i].WellFormed() {
				t.Fatalf("count %d word %d ill-formed", count, i)
			}
			for s := count; s < 64; s++ {
				if got[i].Get(uint(s)) != X {
					t.Fatalf("count %d word %d: invalid slot %d not X", count, i, s)
				}
			}
		}
	}
}

// TestPackSlotsReusesBuffer: a large-enough dst must be reused (no stale
// slots survive because every word is rewritten) and resized down.
func TestPackSlotsReusesBuffer(t *testing.T) {
	buf := make([]Word, 10)
	for i := range buf {
		buf[i] = AllOne
	}
	vecs := [][]V{{Zero, One, X}}
	got := PackSlots(buf, vecs)
	if len(got) != 3 || &got[0] != &buf[0] {
		t.Fatalf("buffer not reused: len %d", len(got))
	}
	if got[0].Get(0) != Zero || got[1].Get(0) != One || got[2].Get(0) != X {
		t.Fatalf("values wrong: %v %v %v", got[0], got[1], got[2])
	}
	if got[0].Get(1) != X {
		t.Fatal("stale slot leaked from reused buffer")
	}
	if out := PackSlots(buf, nil); len(out) != 0 {
		t.Fatalf("empty input gave %d words", len(out))
	}
}

func TestValidMask(t *testing.T) {
	cases := []struct {
		n    int
		want uint64
	}{{0, 0}, {1, 1}, {3, 0b111}, {63, 1<<63 - 1}, {64, ^uint64(0)}, {100, ^uint64(0)}, {-1, 0}}
	for _, c := range cases {
		if got := ValidMask(c.n); got != c.want {
			t.Fatalf("ValidMask(%d) = %b want %b", c.n, got, c.want)
		}
	}
}

// ClearSlots returns w with every masked slot forced to X.
func (w Word) ClearSlots(mask uint64) Word {
	return Word{Zero: w.Zero &^ mask, One: w.One &^ mask}
}

// SetSlots returns w with every masked slot forced to the scalar v.
func (w Word) SetSlots(mask uint64, v V) Word {
	w = w.ClearSlots(mask)
	switch v {
	case Zero:
		w.Zero |= mask
	case One:
		w.One |= mask
	}
	return w
}

func TestClearSlots(t *testing.T) {
	w := Splat(One).Set(3, Zero).Set(7, X)
	got := w.ClearSlots(1<<0 | 1<<3 | 1<<9)
	for i := uint(0); i < 64; i++ {
		want := w.Get(i)
		if i == 0 || i == 3 || i == 9 {
			want = X
		}
		if got.Get(i) != want {
			t.Fatalf("slot %d: got %v want %v", i, got.Get(i), want)
		}
	}
	if !got.WellFormed() {
		t.Fatal("ClearSlots produced an ill-formed word")
	}
}

func TestSetSlots(t *testing.T) {
	for _, v := range []V{Zero, One, X} {
		w := Splat(Zero).Set(5, One).SetSlots(1<<2|1<<5|1<<63, v)
		for i := uint(0); i < 64; i++ {
			want := Zero
			if i == 5 {
				want = One
			}
			if i == 2 || i == 5 || i == 63 {
				want = v
			}
			if w.Get(i) != want {
				t.Fatalf("v=%v slot %d: got %v want %v", v, i, w.Get(i), want)
			}
		}
		if !w.WellFormed() {
			t.Fatalf("SetSlots(%v) produced an ill-formed word", v)
		}
	}
}
