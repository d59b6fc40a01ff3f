package experiment

import (
	"fmt"
	"math"
	"strings"
	"text/tabwriter"
)

// Fig4Row is one x-axis point of Figure 4: mean normalized total profit
// of each method (normalized per scenario by the best profit found).
type Fig4Row struct {
	Clients    int
	Proposed   float64
	ModifiedPS float64
	BestFound  float64 // 1 by construction; kept for the table
	Scenarios  int
}

// fig4Rows reduces a sweep to the Figure 4 series.
func fig4Rows(points []SweepPoint) []Fig4Row {
	rows := make([]Fig4Row, 0, len(points))
	for _, pt := range points {
		var row Fig4Row
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
			row.BestFound += math.Max(st.MCBestOpt, 0) / st.Best
		}
		if row.Scenarios > 0 {
			n := float64(row.Scenarios)
			row.Proposed /= n
			row.ModifiedPS /= n
			row.BestFound /= n
		}
		rows = append(rows, row)
	}
	return rows
}

// Fig4Table renders the Figure 4 series as text.
func Fig4Table(points []SweepPoint) string {
	var b strings.Builder
	b.WriteString("Figure 4: normalized total profit vs number of clients\n")
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "clients\tproposed\tmodifiedPS\tbestFound\tscenarios")
	for _, r := range fig4Rows(points) {
		fmt.Fprintf(w, "%d\t%.3f\t%.3f\t%.3f\t%d\n",
			r.Clients, r.Proposed, r.ModifiedPS, r.BestFound, r.Scenarios)
	}
	w.Flush()
	return b.String()
}

// Fig5Row is one x-axis point of Figure 5: the worst-case profile across
// the scenarios, normalized per scenario by the best profit found.
type Fig5Row struct {
	Clients            int
	WorstInitialBefore float64 // worst random solution before optimization
	WorstInitialAfter  float64 // worst random solution after local search
	WorstProposed      float64 // worst proposed-solution profit
	BestFound          float64 // 1 by construction
	Scenarios          int
}

// fig5Rows reduces a sweep to the Figure 5 series.
func fig5Rows(points []SweepPoint) []Fig5Row {
	rows := make([]Fig5Row, 0, len(points))
	for _, pt := range points {
		row := Fig5Row{
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

// Fig5Table renders the Figure 5 series as text.
func Fig5Table(points []SweepPoint) string {
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
