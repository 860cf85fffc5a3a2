// Package pattern serializes test-pattern sets in a compact STIL-flavored
// text form, the artifact a pattern-generation flow hands to the tester
// (and the input the screening tools re-read). Each pattern carries its
// scan-in state V1 in design flop order, the constant primary-input
// vector, and its generation metadata (target fault, compaction
// secondaries, procedure step).
package pattern

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"scap/internal/atpg"
	"scap/internal/logic"
	"scap/internal/netlist"
)

// Write emits the pattern set. The header records the design name and the
// vector lengths so Read can validate against the target design.
func Write(w io.Writer, d *netlist.Design, pats []atpg.Pattern) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "SCAPPAT 1\ndesign %s\nflops %d\npis %d\npatterns %d\n",
		d.Name, len(d.Flops), len(d.PIs), len(pats))
	for i := range pats {
		p := &pats[i]
		fmt.Fprintf(bw, "pattern %d target=%d step=%d", i, p.Target, p.Step)
		if len(p.Secondaries) > 0 {
			fmt.Fprintf(bw, " secondaries=%s", joinInts(p.Secondaries))
		}
		fmt.Fprintln(bw)
		fmt.Fprintf(bw, " v1 %s\n", bits(p.V1))
		fmt.Fprintf(bw, " pi %s\n", bits(p.PIs))
	}
	return bw.Flush()
}

func bits(vs []logic.V) string {
	b := make([]byte, len(vs))
	for i, v := range vs {
		b[i] = v.String()[0]
	}
	return string(b)
}

func joinInts(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.Itoa(x)
	}
	return strings.Join(parts, ",")
}

// Read parses a pattern set written by Write and validates its vector
// lengths against d.
func Read(r io.Reader, d *netlist.Design) ([]atpg.Pattern, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 64*1024*1024)
	line := 0
	next := func() (string, bool) {
		for sc.Scan() {
			line++
			txt := strings.TrimSpace(sc.Text())
			if txt != "" {
				return txt, true
			}
		}
		return "", false
	}
	expect := func(prefix string) (string, error) {
		txt, ok := next()
		if !ok {
			return "", fmt.Errorf("pattern: line %d: unexpected EOF, want %q", line, prefix)
		}
		if !strings.HasPrefix(txt, prefix) {
			return "", fmt.Errorf("pattern: line %d: want %q, got %q", line, prefix, txt)
		}
		return strings.TrimSpace(strings.TrimPrefix(txt, prefix)), nil
	}

	if _, err := expect("SCAPPAT 1"); err != nil {
		return nil, err
	}
	if _, err := expect("design "); err != nil {
		return nil, err
	}
	nf, err := expectInt(expect, "flops ")
	if err != nil {
		return nil, err
	}
	np, err := expectInt(expect, "pis ")
	if err != nil {
		return nil, err
	}
	if nf != len(d.Flops) || np != len(d.PIs) {
		return nil, fmt.Errorf("pattern: file is for %d flops / %d PIs, design has %d / %d",
			nf, np, len(d.Flops), len(d.PIs))
	}
	count, err := expectInt(expect, "patterns ")
	if err != nil {
		return nil, err
	}
	if count < 0 {
		return nil, fmt.Errorf("pattern: line %d: negative pattern count %d", line, count)
	}

	// The count comes from the file, so the slice grows with the patterns
	// actually read rather than being sized from it up front.
	var pats []atpg.Pattern
	for i := 0; i < count; i++ {
		head, err := expect("pattern ")
		if err != nil {
			return nil, err
		}
		var p atpg.Pattern
		for fi, f := range strings.Fields(head) {
			if fi == 0 {
				continue // pattern index
			}
			kv := strings.SplitN(f, "=", 2)
			if len(kv) != 2 {
				return nil, fmt.Errorf("pattern: line %d: bad attribute %q", line, f)
			}
			switch kv[0] {
			case "target":
				p.Target, err = strconv.Atoi(kv[1])
			case "step":
				p.Step, err = strconv.Atoi(kv[1])
			case "secondaries":
				for _, s := range strings.Split(kv[1], ",") {
					v, e := strconv.Atoi(s)
					if e != nil {
						err = e
						break
					}
					p.Secondaries = append(p.Secondaries, v)
				}
			}
			if err != nil {
				return nil, fmt.Errorf("pattern: line %d: %v", line, err)
			}
		}
		v1s, err := expect("v1 ")
		if err != nil {
			return nil, err
		}
		if p.V1, err = parseBits(v1s, nf); err != nil {
			return nil, fmt.Errorf("pattern: line %d: %v", line, err)
		}
		pis, err := expect("pi ")
		if err != nil {
			return nil, err
		}
		if p.PIs, err = parseBits(pis, np); err != nil {
			return nil, fmt.Errorf("pattern: line %d: %v", line, err)
		}
		pats = append(pats, p)
	}
	return pats, sc.Err()
}

func expectInt(expect func(string) (string, error), prefix string) (int, error) {
	s, err := expect(prefix)
	if err != nil {
		return 0, err
	}
	return strconv.Atoi(s)
}

func parseBits(s string, want int) ([]logic.V, error) {
	if len(s) != want {
		return nil, fmt.Errorf("vector length %d, want %d", len(s), want)
	}
	out := make([]logic.V, want)
	for i := 0; i < want; i++ {
		switch s[i] {
		case '0':
			out[i] = logic.Zero
		case '1':
			out[i] = logic.One
		case 'X':
			out[i] = logic.X
		default:
			return nil, fmt.Errorf("bad bit %q at %d", s[i], i)
		}
	}
	return out, nil
}
