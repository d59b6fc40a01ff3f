package experiment

import (
	"fmt"
	"math"
	"strings"
)

// Series is one named line of an ASCII chart.
type Series struct {
	Name   string
	Marker byte
	Values []float64
}

// asciiChart renders series over a shared x-axis as a fixed-size ASCII
// plot — enough to eyeball the shape of Figures 4 and 5 in a terminal.
func asciiChart(title string, xs []int, series []Series, height int) string {
	if len(xs) == 0 || len(series) == 0 || height < 2 {
		return ""
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, s := range series {
		for _, v := range s.Values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
	}
	if math.IsInf(lo, 1) {
		return ""
	}
	if hi == lo {
		hi = lo + 1
	}
	// One column block per x value.
	const colWidth = 8
	width := len(xs) * colWidth
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	row := func(v float64) int {
		frac := (v - lo) / (hi - lo)
		r := int(math.Round(float64(height-1) * (1 - frac)))
		if r < 0 {
			r = 0
		}
		if r >= height {
			r = height - 1
		}
		return r
	}
	for _, s := range series {
		for xi, v := range s.Values {
			if xi >= len(xs) || math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			c := xi*colWidth + colWidth/2
			grid[row(v)][c] = s.Marker
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	for r, line := range grid {
		label := "      "
		switch r {
		case 0:
			label = fmt.Sprintf("%6.2f", hi)
		case height - 1:
			label = fmt.Sprintf("%6.2f", lo)
		}
		fmt.Fprintf(&b, "%s |%s\n", label, string(line))
	}
	b.WriteString("       +" + strings.Repeat("-", width) + "\n        ")
	for _, x := range xs {
		fmt.Fprintf(&b, "%-*d", colWidth, x)
	}
	b.WriteString("\n")
	for _, s := range series {
		fmt.Fprintf(&b, "        %c = %s\n", s.Marker, s.Name)
	}
	return b.String()
}

// Fig4Chart renders the Figure 4 series as an ASCII plot.
func Fig4Chart(points []SweepPoint) string {
	rows := fig4Rows(points)
	xs := make([]int, len(rows))
	proposed := make([]float64, len(rows))
	ps := make([]float64, len(rows))
	best := make([]float64, len(rows))
	for i, r := range rows {
		xs[i] = r.Clients
		proposed[i] = r.Proposed
		ps[i] = r.ModifiedPS
		best[i] = r.BestFound
	}
	return asciiChart("Figure 4 (normalized total profit vs clients)", xs, []Series{
		{Name: "proposed", Marker: 'P', Values: proposed},
		{Name: "modified PS", Marker: 's', Values: ps},
		{Name: "best found", Marker: '*', Values: best},
	}, 16)
}

// Fig5Chart renders the Figure 5 series as an ASCII plot.
func Fig5Chart(points []SweepPoint) string {
	rows := fig5Rows(points)
	xs := make([]int, len(rows))
	before := make([]float64, len(rows))
	after := make([]float64, len(rows))
	worstProp := make([]float64, len(rows))
	for i, r := range rows {
		xs[i] = r.Clients
		before[i] = r.WorstInitialBefore
		after[i] = r.WorstInitialAfter
		worstProp[i] = r.WorstProposed
	}
	return asciiChart("Figure 5 (worst-case normalized profit vs clients)", xs, []Series{
		{Name: "worst initial (before opt)", Marker: 'w', Values: before},
		{Name: "worst initial (after local search)", Marker: 'a', Values: after},
		{Name: "worst proposed", Marker: 'P', Values: worstProp},
	}, 16)
}
