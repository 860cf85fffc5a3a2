// Package textplot renders the paper's figures as ASCII plots: per-pattern
// scatter charts with a threshold line (Figures 2 and 6), multi-series
// coverage curves (Figure 4), spatial heatmaps (Figure 3), and endpoint
// delay profiles (Figure 7). Plots are deterministic text so experiment
// output can be diffed and embedded in EXPERIMENTS.md.
package textplot

import (
	"fmt"
	"math"
	"strings"
)

// Scatter plots one value per index (e.g. SCAP per pattern) as a w×h chart
// with a horizontal threshold line. Values above the threshold render as
// '*', values below as '.', and the threshold row as '-'.
func Scatter(ys []float64, threshold float64, w, h int, title, yUnit string) string {
	if len(ys) == 0 || w < 8 || h < 4 {
		return title + ": (no data)\n"
	}
	maxY := threshold
	for _, y := range ys {
		if y > maxY {
			maxY = y
		}
	}
	if maxY <= 0 {
		maxY = 1
	}
	maxY *= 1.05
	grid := make([][]byte, h)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", w))
	}
	rowOf := func(y float64) int {
		r := h - 1 - int(y/maxY*float64(h-1)+0.5)
		if r < 0 {
			r = 0
		}
		if r >= h {
			r = h - 1
		}
		return r
	}
	thrRow := rowOf(threshold)
	for c := 0; c < w; c++ {
		grid[thrRow][c] = '-'
	}
	for i, y := range ys {
		c := i * (w - 1) / max(len(ys)-1, 1)
		r := rowOf(y)
		ch := byte('.')
		if y > threshold {
			ch = '*'
		}
		grid[r][c] = ch
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s  (max %.4g %s, threshold %.4g %s, n=%d)\n",
		title, maxY/1.05, yUnit, threshold, yUnit, len(ys))
	for _, row := range grid {
		b.Write(row)
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%-8s%s%8s\n", "1", strings.Repeat(" ", max(w-16, 0)), fmt.Sprint(len(ys)))
	return b.String()
}

// Series is one named curve for Curves.
type Series struct {
	Label string
	Ys    []float64
}

// Curves plots multiple curves over a shared x index (e.g. coverage vs
// pattern count). Each series is drawn with its own rune ('a' + index in
// the legend).
func Curves(series []Series, w, h int, title, yUnit string) string {
	maxY, maxN := 0.0, 0
	for _, s := range series {
		for _, y := range s.Ys {
			if y > maxY {
				maxY = y
			}
		}
		if len(s.Ys) > maxN {
			maxN = len(s.Ys)
		}
	}
	if maxN == 0 || w < 8 || h < 4 {
		return title + ": (no data)\n"
	}
	if maxY <= 0 {
		maxY = 1
	}
	maxY *= 1.05
	grid := make([][]byte, h)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", w))
	}
	for si, s := range series {
		mark := byte('a' + si)
		for i, y := range s.Ys {
			c := i * (w - 1) / max(maxN-1, 1)
			r := h - 1 - int(y/maxY*float64(h-1)+0.5)
			if r < 0 {
				r = 0
			}
			if r >= h {
				r = h - 1
			}
			grid[r][c] = mark
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s  (max %.4g %s, x=1..%d)\n", title, maxY/1.05, yUnit, maxN)
	for _, row := range grid {
		b.Write(row)
		b.WriteByte('\n')
	}
	for si, s := range series {
		fmt.Fprintf(&b, "  %c = %s\n", byte('a'+si), s.Label)
	}
	return b.String()
}

// heatRunes maps intensity 0..1 to shading characters.
var heatRunes = []byte(" .:-=+*#%@")

// Heatmap renders an n×n node grid of values (row 0 = bottom of the die)
// as shaded characters, flagging cells above the threshold with '@' (the
// paper's Figure 3 red regions are drops above 10% of VDD).
func Heatmap(vals []float64, n int, threshold float64, title string) string {
	if len(vals) != n*n || n < 1 {
		return title + ": (no data)\n"
	}
	maxV := 0.0
	for _, v := range vals {
		if v > maxV {
			maxV = v
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s  (max %.4g, '@' above %.4g)\n", title, maxV, threshold)
	for row := n - 1; row >= 0; row-- {
		for col := 0; col < n; col++ {
			v := vals[row*n+col]
			var ch byte
			switch {
			case v > threshold:
				ch = '@'
			case maxV <= 0:
				ch = heatRunes[0]
			default:
				idx := int(v / maxV * float64(len(heatRunes)-1))
				if idx >= len(heatRunes)-1 {
					idx = len(heatRunes) - 2 // reserve '@' for threshold
				}
				ch = heatRunes[idx]
			}
			b.WriteByte(ch)
			b.WriteByte(ch) // double width for aspect ratio
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Profile renders a per-endpoint value chart (the paper's Figure 7): one
// column per endpoint, '+' for positive values, 'o' for negative.
func Profile(ys []float64, w, h int, title, yUnit string) string {
	if len(ys) == 0 || w < 8 || h < 5 {
		return title + ": (no data)\n"
	}
	maxAbs := 0.0
	for _, y := range ys {
		if a := math.Abs(y); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		maxAbs = 1
	}
	grid := make([][]byte, h)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", w))
	}
	zero := h / 2
	for c := 0; c < w; c++ {
		grid[zero][c] = '-'
	}
	for i, y := range ys {
		c := i * (w - 1) / max(len(ys)-1, 1)
		span := float64(zero)
		r := zero - int(y/maxAbs*span+math.Copysign(0.5, y))
		if r < 0 {
			r = 0
		}
		if r >= h {
			r = h - 1
		}
		ch := byte('+')
		if y < 0 {
			ch = 'o'
		}
		if y != 0 {
			grid[r][c] = ch
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s  (|max| %.4g %s, n=%d)\n", title, maxAbs, yUnit, len(ys))
	for _, row := range grid {
		b.Write(row)
		b.WriteByte('\n')
	}
	return b.String()
}

// StageRow is one row of StageTable: a (possibly indented) stage label
// and its wall time in milliseconds.
type StageRow struct {
	Label string
	Ms    float64
}

// StageTable renders a run's stage tree (already flattened to indented
// rows) as an aligned wall-time table with proportional bars — the
// human-readable exit summary of the observability layer.
func StageTable(rows []StageRow, width int, title string) string {
	if len(rows) == 0 {
		return title + ": (no stages)\n"
	}
	labelW, maxMs := 0, 0.0
	for _, r := range rows {
		if len(r.Label) > labelW {
			labelW = len(r.Label)
		}
		if r.Ms > maxMs {
			maxMs = r.Ms
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s  (total wall includes nested stages)\n", title)
	for _, r := range rows {
		bar := 0
		if maxMs > 0 {
			bar = int(r.Ms / maxMs * float64(width))
		}
		fmt.Fprintf(&b, "  %-*s %10.1f ms  %s\n", labelW, r.Label, r.Ms, strings.Repeat("#", bar))
	}
	return b.String()
}

// Histogram renders labeled integer buckets as horizontal bars.
func Histogram(counts []int, labels []string, width int, title string) string {
	if len(counts) == 0 || len(counts) != len(labels) {
		return title + ": (no data)\n"
	}
	maxC := 0
	for _, c := range counts {
		if c > maxC {
			maxC = c
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s  (max %d)\n", title, maxC)
	for i, c := range counts {
		bar := 0
		if maxC > 0 {
			bar = c * width / maxC
		}
		fmt.Fprintf(&b, "%-10s %6d %s\n", labels[i], c, strings.Repeat("#", bar))
	}
	return b.String()
}
