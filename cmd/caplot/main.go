// Command caplot renders a reproduction experiment as an ASCII chart —
// the quickest way to eyeball the scaling shapes EXPERIMENTS.md describes
// (linearity in ℓ, the n vs n² vs n³ ordering) without leaving the
// terminal.
//
// Usage:
//
//	caplot [-x col] [-y col1,col2] [-linear] <experiment>
//
// Example:
//
//	caplot E2            # bits-vs-n for optimal/broadcast/highcost, log-log
//	caplot -y bits_per_ell_n E6
//
// Columns are selected by header name; all numeric columns are plotted by
// default. Axes are logarithmic unless -linear is given. Cell values like
// "37.5KiB", "11.1x", "62%" and plain numbers all parse.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"convexagreement/internal/experiments"
)

func main() {
	os.Exit(run())
}

func run() int {
	xCol := flag.String("x", "", "x-axis column (default: first column)")
	yCols := flag.String("y", "", "comma-separated y columns (default: all numeric)")
	linear := flag.Bool("linear", false, "linear axes instead of log-log")
	width := flag.Int("width", 72, "plot width in characters")
	height := flag.Int("height", 20, "plot height in characters")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "caplot: exactly one experiment id required (E1..E20)")
		return 2
	}
	tbl, err := experiments.ByID(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	chart, err := render(tbl, *xCol, splitCols(*yCols), !*linear, *width, *height)
	if err != nil {
		fmt.Fprintln(os.Stderr, "caplot:", err)
		return 1
	}
	fmt.Println(chart)
	return 0
}

func splitCols(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

// render builds the ASCII chart for the chosen columns.
func render(tbl experiments.Table, xName string, yNames []string, logAxes bool, width, height int) (string, error) {
	xi := 0
	if xName != "" {
		idx := colIndex(tbl.Header, xName)
		if idx < 0 {
			return "", fmt.Errorf("x column %q not found in %v", xName, tbl.Header)
		}
		xi = idx
	}
	var yIdx []int
	if len(yNames) == 0 {
		for i := range tbl.Header {
			if i == xi {
				continue
			}
			if columnNumeric(tbl, i) {
				yIdx = append(yIdx, i)
			}
		}
	} else {
		for _, name := range yNames {
			idx := colIndex(tbl.Header, name)
			if idx < 0 {
				return "", fmt.Errorf("y column %q not found in %v", name, tbl.Header)
			}
			yIdx = append(yIdx, idx)
		}
	}
	if len(yIdx) == 0 {
		return "", fmt.Errorf("no numeric y columns in experiment %s", tbl.ID)
	}

	type point struct {
		x, y   float64
		series int
	}
	var pts []point
	for _, row := range tbl.Rows {
		x, ok := parseCell(row[xi])
		if !ok {
			continue
		}
		for s, yi := range yIdx {
			if y, ok := parseCell(row[yi]); ok {
				pts = append(pts, point{x: x, y: y, series: s})
			}
		}
	}
	if len(pts) == 0 {
		return "", fmt.Errorf("no plottable points")
	}

	tx := func(v float64) float64 { return v }
	if logAxes {
		tx = func(v float64) float64 {
			if v <= 0 {
				return 0
			}
			return math.Log10(v)
		}
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, p := range pts {
		minX, maxX = math.Min(minX, tx(p.x)), math.Max(maxX, tx(p.x))
		minY, maxY = math.Min(minY, tx(p.y)), math.Max(maxY, tx(p.y))
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}

	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	marks := "abcdefghij"
	for _, p := range pts {
		cx := int((tx(p.x) - minX) / (maxX - minX) * float64(width-1))
		cy := int((tx(p.y) - minY) / (maxY - minY) * float64(height-1))
		row := height - 1 - cy
		mark := marks[p.series%len(marks)]
		if grid[row][cx] != ' ' && grid[row][cx] != mark {
			grid[row][cx] = '*' // collision
		} else {
			grid[row][cx] = mark
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s\n", tbl.ID, tbl.Title)
	axes := "log-log"
	if !logAxes {
		axes = "linear"
	}
	fmt.Fprintf(&b, "x: %s, %s axes\n", tbl.Header[xi], axes)
	for s, yi := range yIdx {
		fmt.Fprintf(&b, "  %c = %s\n", marks[s%len(marks)], tbl.Header[yi])
	}
	fmt.Fprintf(&b, "%11.3g ┤\n", untx(maxY, logAxes))
	for _, row := range grid {
		fmt.Fprintf(&b, "%11s │%s\n", "", string(row))
	}
	fmt.Fprintf(&b, "%11.3g └%s\n", untx(minY, logAxes), strings.Repeat("─", width))
	fmt.Fprintf(&b, "%12s%-10.4g%*s%.4g\n", "", untx(minX, logAxes), width-20, "", untx(maxX, logAxes))
	return b.String(), nil
}

func untx(v float64, logAxes bool) float64 {
	if logAxes {
		return math.Pow(10, v)
	}
	return v
}

func colIndex(header []string, name string) int {
	for i, h := range header {
		if strings.EqualFold(h, name) {
			return i
		}
	}
	return -1
}

func columnNumeric(tbl experiments.Table, col int) bool {
	hits := 0
	for _, row := range tbl.Rows {
		if col < len(row) {
			if _, ok := parseCell(row[col]); ok {
				hits++
			}
		}
	}
	return hits == len(tbl.Rows) && hits > 0
}

// parseCell extracts a float from the harness's cell formats: "451",
// "11.33", "2.00x", "62%", "37.5KiB", "1.0MiB", "96b".
func parseCell(cell string) (float64, bool) {
	s := strings.TrimSpace(cell)
	if s == "" || s == "-" {
		return 0, false
	}
	mult := 1.0
	switch {
	case strings.HasSuffix(s, "MiB"):
		mult = 8 * 1024 * 1024
		s = strings.TrimSuffix(s, "MiB")
	case strings.HasSuffix(s, "KiB"):
		mult = 8 * 1024
		s = strings.TrimSuffix(s, "KiB")
	case strings.HasSuffix(s, "b"):
		s = strings.TrimSuffix(s, "b")
	case strings.HasSuffix(s, "x"):
		s = strings.TrimSuffix(s, "x")
	case strings.HasSuffix(s, "%"):
		mult = 0.01
		s = strings.TrimSuffix(s, "%")
	}
	var v float64
	if _, err := fmt.Sscanf(s, "%g", &v); err != nil {
		return 0, false
	}
	// Reject trailing garbage ("12ab"): re-format and compare length class.
	var check string
	fmt.Sscanf(s, "%s", &check)
	if check != s {
		return 0, false
	}
	for _, r := range s {
		if (r < '0' || r > '9') && r != '.' && r != '-' && r != '+' && r != 'e' && r != 'E' {
			return 0, false
		}
	}
	return v * mult, true
}
