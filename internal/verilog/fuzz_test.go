package verilog

import (
	"bytes"
	"os"
	"testing"

	"scap/internal/cell"
)

// FuzzRead: Read never panics, and any module it accepts survives
// Write→Read→Write byte for byte. The corpus seeds are the hand-written
// counter and the writer's output for it.
func FuzzRead(f *testing.F) {
	lib := cell.New180nm()
	src, err := os.ReadFile("testdata/counter4.v")
	if err != nil {
		f.Fatal(err)
	}
	d, err := Read(bytes.NewReader(src), lib)
	if err != nil {
		f.Fatal(err)
	}
	var written bytes.Buffer
	if err := Write(&written, d); err != nil {
		f.Fatal(err)
	}
	f.Add(src)
	f.Add(written.Bytes())
	f.Fuzz(func(t *testing.T, in []byte) {
		d, err := Read(bytes.NewReader(in), lib)
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := Write(&first, d); err != nil {
			t.Fatal(err)
		}
		back, err := Read(bytes.NewReader(first.Bytes()), lib)
		if err != nil {
			t.Fatalf("re-reading the written module: %v\n%s", err, first.Bytes())
		}
		if err := Write(&second, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("Write→Read→Write changed the bytes:\n%s\n---\n%s", first.Bytes(), second.Bytes())
		}
	})
}
