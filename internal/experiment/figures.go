package experiment

import (
	"fmt"
	"math"
	"strings"
	"text/tabwriter"
)

// fig4Row is one x-axis point of Figure 4: mean normalized total profit
// of each method (normalized per scenario by the best profit found).
type fig4Row struct {
	Clients    int
	Proposed   float64
	ModifiedPS float64
	MCBest     float64 // the Monte-Carlo best; below 1 where another method found more
	Scenarios  int
}

// fig4Rows reduces a sweep to the Figure 4 series.
func fig4Rows(points []sweepPoint) []fig4Row {
	rows := make([]fig4Row, 0, len(points))
	for _, pt := range points {
		var row fig4Row
		row.Clients = pt.Clients
		for _, st := range pt.Stats {
			if st.Best <= 0 {
				// Degenerate scenario (cloud saturated, nothing profitable):
				// normalization is meaningless, skip it.
				continue
			}
			row.Scenarios++
			row.Proposed += st.Proposed / st.Best
			row.ModifiedPS += st.PS / st.Best
			row.MCBest += math.Max(st.MCBestOpt, 0) / st.Best
		}
		if row.Scenarios > 0 {
			n := float64(row.Scenarios)
			row.Proposed /= n
			row.ModifiedPS /= n
			row.MCBest /= n
		}
		rows = append(rows, row)
	}
	return rows
}

// renderFig4 renders the Figure 4 series as a table and an ASCII plot.
func renderFig4(r *Runner, sz sizes) (string, error) {
	points, err := r.points(sz)
	if err != nil {
		return "", err
	}
	return fig4Table(points) + "\n" + fig4Chart(points), nil
}

// fig4Table renders the Figure 4 series as text.
func fig4Table(points []sweepPoint) string {
	var b strings.Builder
	b.WriteString("Figure 4: normalized total profit vs number of clients\n")
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "clients\tproposed\tmodifiedPS\tmcBest\tscenarios")
	for _, r := range fig4Rows(points) {
		fmt.Fprintf(w, "%d\t%.3f\t%.3f\t%.3f\t%d\n",
			r.Clients, r.Proposed, r.ModifiedPS, r.MCBest, r.Scenarios)
	}
	w.Flush()
	return b.String()
}

// fig5Row is one x-axis point of Figure 5: the worst-case profile across
// the scenarios, normalized per scenario by the best profit found.
type fig5Row struct {
	Clients            int
	WorstInitialBefore float64 // worst random solution before optimization
	WorstInitialAfter  float64 // worst random solution after local search
	WorstProposed      float64 // worst proposed-solution profit
	BestFound          float64 // 1 by construction
	Scenarios          int
}

// fig5Rows reduces a sweep to the Figure 5 series.
func fig5Rows(points []sweepPoint) []fig5Row {
	rows := make([]fig5Row, 0, len(points))
	for _, pt := range points {
		row := fig5Row{
			Clients:            pt.Clients,
			WorstInitialBefore: math.Inf(1),
			WorstInitialAfter:  math.Inf(1),
			WorstProposed:      math.Inf(1),
			BestFound:          1,
		}
		for _, st := range pt.Stats {
			if st.Best <= 0 {
				continue
			}
			row.Scenarios++
			row.WorstInitialBefore = math.Min(row.WorstInitialBefore, st.MCWorstInit/st.Best)
			row.WorstInitialAfter = math.Min(row.WorstInitialAfter, st.MCWorstOpt/st.Best)
			row.WorstProposed = math.Min(row.WorstProposed, st.Proposed/st.Best)
		}
		rows = append(rows, row)
	}
	return rows
}

// renderFig5 renders the Figure 5 series as a table and an ASCII plot.
func renderFig5(r *Runner, sz sizes) (string, error) {
	points, err := r.points(sz)
	if err != nil {
		return "", err
	}
	return fig5Table(points) + "\n" + fig5Chart(points), nil
}

// fig5Table renders the Figure 5 series as text.
func fig5Table(points []sweepPoint) string {
	var b strings.Builder
	b.WriteString("Figure 5: worst-case normalized profit vs number of clients\n")
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "clients\tworstInit(before)\tworstInit(afterLS)\tworstProposed\tbestFound\tscenarios")
	for _, r := range fig5Rows(points) {
		fmt.Fprintf(w, "%d\t%.3f\t%.3f\t%.3f\t%.3f\t%d\n",
			r.Clients, r.WorstInitialBefore, r.WorstInitialAfter, r.WorstProposed, r.BestFound, r.Scenarios)
	}
	w.Flush()
	return b.String()
}
