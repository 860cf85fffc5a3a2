// Package logic provides the logic-value domain used throughout the
// simulator and ATPG: a scalar three-valued type (0, 1, X) and a 64-way
// bit-parallel representation used for parallel-pattern simulation.
//
// The parallel representation is the classical dual-rail encoding: a Word
// carries two uint64 planes, Zero and One. Pattern slot i holds logic 0 when
// bit i of Zero is set, logic 1 when bit i of One is set, and X when neither
// is set. A slot never has both bits set; all operations preserve that
// invariant when given well-formed inputs.
package logic

import "fmt"

// V is a scalar three-valued logic value.
type V uint8

// The three scalar logic values. X models an unknown or don't-care value.
const (
	Zero V = iota
	One
	X
)

// String returns "0", "1" or "X".
func (v V) String() string {
	switch v {
	case Zero:
		return "0"
	case One:
		return "1"
	case X:
		return "X"
	default:
		return fmt.Sprintf("V(%d)", uint8(v))
	}
}

// Not returns the three-valued complement of v.
func (v V) Not() V {
	switch v {
	case Zero:
		return One
	case One:
		return Zero
	default:
		return X
	}
}

// And returns the three-valued conjunction of v and w.
func (v V) And(w V) V {
	if v == Zero || w == Zero {
		return Zero
	}
	if v == One && w == One {
		return One
	}
	return X
}

// Or returns the three-valued disjunction of v and w.
func (v V) Or(w V) V {
	if v == One || w == One {
		return One
	}
	if v == Zero && w == Zero {
		return Zero
	}
	return X
}

// Xor returns the three-valued exclusive-or of v and w.
func (v V) Xor(w V) V {
	if v == X || w == X {
		return X
	}
	if v == w {
		return Zero
	}
	return One
}

// FromBool converts a bool to One (true) or Zero (false).
func FromBool(b bool) V {
	if b {
		return One
	}
	return Zero
}

// Word is a 64-way parallel three-valued logic value in dual-rail encoding.
// Slot i is 0 when Zero has bit i set, 1 when One has bit i set, and X when
// neither plane has bit i set.
type Word struct {
	Zero uint64
	One  uint64
}

// AllX is the Word with every slot unknown.
var AllX = Word{}

// AllZero is the Word with every slot at logic 0.
var AllZero = Word{Zero: ^uint64(0)}

// AllOne is the Word with every slot at logic 1.
var AllOne = Word{One: ^uint64(0)}

// Splat returns a Word with every slot set to the scalar v.
func Splat(v V) Word {
	switch v {
	case Zero:
		return AllZero
	case One:
		return AllOne
	default:
		return AllX
	}
}

// Get returns the scalar value in slot i (0 <= i < 64).
func (w Word) Get(i uint) V {
	m := uint64(1) << i
	switch {
	case w.One&m != 0:
		return One
	case w.Zero&m != 0:
		return Zero
	default:
		return X
	}
}

// Set returns a copy of w with slot i set to v.
func (w Word) Set(i uint, v V) Word {
	m := uint64(1) << i
	w.Zero &^= m
	w.One &^= m
	switch v {
	case Zero:
		w.Zero |= m
	case One:
		w.One |= m
	}
	return w
}

// Not returns the slot-wise three-valued complement.
func (w Word) Not() Word { return Word{Zero: w.One, One: w.Zero} }

// And returns the slot-wise three-valued conjunction.
func (w Word) And(x Word) Word {
	return Word{Zero: w.Zero | x.Zero, One: w.One & x.One}
}

// Or returns the slot-wise three-valued disjunction.
func (w Word) Or(x Word) Word {
	return Word{Zero: w.Zero & x.Zero, One: w.One | x.One}
}

// Xor returns the slot-wise three-valued exclusive-or. Slots where either
// operand is X yield X.
func (w Word) Xor(x Word) Word {
	known := (w.Zero | w.One) & (x.Zero | x.One)
	diff := (w.Zero & x.One) | (w.One & x.Zero)
	return Word{Zero: known &^ diff, One: known & diff}
}

// Known returns a mask of the slots that hold a defined (non-X) value.
func (w Word) Known() uint64 { return w.Zero | w.One }

// Diff returns a mask of slots where w and x hold different *defined*
// values (one is 0 and the other is 1). Slots where either side is X are
// never reported as different.
func (w Word) Diff(x Word) uint64 {
	return (w.Zero & x.One) | (w.One & x.Zero)
}

// WellFormed reports whether no slot has both the Zero and One bit set.
func (w Word) WellFormed() bool { return w.Zero&w.One == 0 }

// PackSlots transposes up to 64 scalar vectors into their packed Word
// form: the result r satisfies r[i].Get(s) == vecs[s][i] for every vector
// s and position i; slots >= len(vecs) are X. All vectors must share the
// length of vecs[0]. dst is reused when its capacity suffices (each word
// is written exactly once, so stale contents never leak), making the
// transpose allocation-free in steady state — the batch builders in ATPG,
// static compaction, fault grading and the packed screen all sit on it.
func PackSlots(dst []Word, vecs [][]V) []Word {
	if len(vecs) == 0 {
		return dst[:0]
	}
	n := len(vecs[0])
	if cap(dst) < n {
		dst = make([]Word, n)
	} else {
		dst = dst[:n]
	}
	for i := 0; i < n; i++ {
		var z, o uint64
		for s := range vecs {
			switch vecs[s][i] {
			case Zero:
				z |= 1 << uint(s)
			case One:
				o |= 1 << uint(s)
			}
		}
		dst[i] = Word{Zero: z, One: o}
	}
	return dst
}

// ValidMask returns the slot mask covering the first n of 64 slots — the
// Valid mask of a batch carrying n packed patterns.
func ValidMask(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	if n <= 0 {
		return 0
	}
	return uint64(1)<<uint(n) - 1
}

// Select returns a Word that takes slots from a where mask bits are 0 and
// from b where mask bits are 1.
func Select(mask uint64, a, b Word) Word {
	return Word{
		Zero: a.Zero&^mask | b.Zero&mask,
		One:  a.One&^mask | b.One&mask,
	}
}

// String renders the word as 64 characters, slot 0 first.
func (w Word) String() string {
	buf := make([]byte, 64)
	for i := uint(0); i < 64; i++ {
		buf[i] = w.Get(i).String()[0]
	}
	return string(buf)
}
