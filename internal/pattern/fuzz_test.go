package pattern

import (
	"bytes"
	"testing"
)

// FuzzRead: Read never panics, and any set it accepts survives
// Write→Read→Write byte for byte. The corpus seeds are sets written
// for the scale-96 design.
func FuzzRead(f *testing.F) {
	d, pats := patternSet(f)
	for _, n := range []int{0, 1, 3} {
		var buf bytes.Buffer
		if err := Write(&buf, d, pats[:n]); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		got, err := Read(bytes.NewReader(in), d)
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := Write(&first, d, got); err != nil {
			t.Fatal(err)
		}
		back, err := Read(bytes.NewReader(first.Bytes()), d)
		if err != nil {
			t.Fatalf("re-reading the written set: %v\n%s", err, first.Bytes())
		}
		if err := Write(&second, d, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("Write→Read→Write changed the bytes:\n%s\n---\n%s", first.Bytes(), second.Bytes())
		}
	})
}
