package vcd

import (
	"bytes"
	"testing"
)

// FuzzRead feeds Read arbitrary bytes, seeded with a dump Write produced
// and a few malformed ones. Read must return changes or an error, never
// panic.
func FuzzRead(f *testing.F) {
	rec, _ := record(f)
	var buf bytes.Buffer
	if err := rec.Write(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("$var wire 1 ! a $end\n$enddefinitions $end\n#-5\n1!\n0!\n"))
	f.Add([]byte("$enddefinitions $end\n#\n0\n"))
	f.Fuzz(func(t *testing.T, in []byte) {
		_, _ = Read(bytes.NewReader(in))
	})
}
